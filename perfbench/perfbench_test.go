package main

import (
	"bytes"
	"os"
	"testing"
	"time"
)

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	want, err := specJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("BENCHMARK.json is stale; regenerate it with: go run . -write-spec ../BENCHMARK.json\n%s", want)
	}
}

func TestQuantileIsExactNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.5, 100}, {0.99, 198}, {1, 200}, {0.001, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestHistoryAdmissible(t *testing.T) {
	ms := time.Millisecond
	h := history{7: {
		{seq: 1, start: 0, end: 2 * ms},
		{seq: 2, start: 3 * ms, end: 5 * ms},
		{seq: 3, start: 4 * ms, end: 9 * ms},
	}}
	cases := []struct {
		name   string
		seq    uint64
		rs, re time.Duration
		want   bool
	}{
		{"preload before any write", 0, 0, 1 * ms, true},
		{"preload after a write finished", 0, 3 * ms, 4 * ms, false},
		{"latest finished write", 1, 2500 * time.Microsecond, 2600 * time.Microsecond, true},
		{"write superseded before the read", 1, 6 * ms, 7 * ms, false},
		{"concurrent writes may land in either order", 2, 10 * ms, 11 * ms, true},
		{"concurrent write", 3, 6 * ms, 7 * ms, true},
		{"write from the future", 3, 1 * ms, 2 * ms, false},
		{"never written", 9, 0, 20 * ms, false},
	}
	for _, c := range cases {
		if got := h.admissible(7, c.seq, c.rs, c.re, true); got != c.want {
			t.Errorf("%s: admissible = %v, want %v", c.name, got, c.want)
		}
	}
}

// testWorkload is a small rw-durable: writes share the read keyspace,
// so both the per-read and the end-of-phase checks are exercised.
func testWorkload() *workload {
	return &workload{
		Name: "test", Servers: 2, Workers: 2,
		Keys: 64, Skew: 0.99, FanLo: 1, FanHi: 4, Sizes: sizeModel{Lo: 64},
		WALSync: "coalesce:2ms", WriteFrac: 0.5, WriteSize: 64,
		Rate: 500, P99Limit: 25 * time.Millisecond, CrashCheck: true,
	}
}

// check runs a short open-loop phase of testWorkload on a fresh
// cluster, after tamper (if any) has had its way with the cluster, and
// returns what the checks found and how many puts were acknowledged.
func check(t *testing.T, lieSync bool, tamper func(*cluster)) (o *outcome, acked int) {
	t.Helper()
	w := testWorkload()
	r := &runner{w: w, in: newInputs(w, 42), seconds: 1, dir: t.TempDir(), lieSync: lieSync}
	o = &outcome{e2e: map[string]float64{}, samples: map[string]int{}}
	err := r.onCluster(o, w.CrashCheck, func(c *cluster) error {
		if tamper != nil {
			tamper(c)
		}
		reqs := newReqGen(w, r.in.read, r.in.write, r.in.seed, 1).schedule(w.Rate, 0.4)
		_, s, err := r.phase(o, c, func(ph *phase) error { return ph.runOpen(reqs, 100*time.Millisecond, 300*time.Millisecond) })
		acked = s.putsAcked
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return o, acked
}

func TestChecksPassOnHealthyCluster(t *testing.T) {
	o, acked := check(t, false, nil)
	if o.wrong != 0 || o.failed != 0 || acked == 0 {
		t.Fatalf("healthy run: wrong %d failed %d acked puts %d, problems %v", o.wrong, o.failed, acked, o.problems)
	}
}

func TestChecksRejectWrongValue(t *testing.T) {
	// A server that returns bytes no client ever wrote: every key's
	// stored value is corrupted behind the client's back.
	corrupt := func(c *cluster) {
		for _, srv := range c.servers {
			for r := 0; r < c.w.Keys; r++ {
				if v, ok := srv.Store().Get(keyName(r)); ok {
					bad := append([]byte(nil), v...)
					bad[len(bad)-1] ^= 0xff
					srv.Store().Put(keyName(r), bad)
				}
			}
		}
	}
	o, _ := check(t, false, corrupt)
	if o.wrong == 0 {
		t.Fatalf("corrupted values were accepted")
	}
	t.Log(o.problems)
}

func TestChecksRejectLostAcknowledgedWrite(t *testing.T) {
	// The log reports fsyncs that never reached the disk, so the crash
	// loses writes the client saw acknowledged.
	o, acked := check(t, true, nil)
	if acked == 0 {
		t.Fatal("no acknowledged puts to lose")
	}
	if o.wrong == 0 {
		t.Fatalf("lost acknowledged writes went unnoticed")
	}
	t.Log(o.problems)
}
