package main

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/wire"
)

// inputs is everything one process derives from its seed up front: the
// name and preloaded value of every read key, the names of the write
// keys, and the key-popularity samplers.
type inputs struct {
	seed       uint64
	names      []string
	values     [][]byte
	writeNames []string
	read       zipf
	write      zipf
}

func newInputs(w *workload, seed uint64) *inputs {
	in := &inputs{seed: seed, names: make([]string, w.Keys), values: make([][]byte, w.Keys), read: newZipf(w.Keys, w.Skew)}
	for r := range in.values {
		in.names[r] = keyName(r)
		in.values[r] = makeValue(seed, 0, r, 0, w.Sizes.size(r))
	}
	in.write, in.writeNames = in.read, in.names
	if w.WriteKeys > 0 {
		in.write = newZipf(w.WriteKeys, w.Skew)
		in.writeNames = make([]string, w.WriteKeys)
		for r := range in.writeNames {
			in.writeNames[r] = writeKeyName(r)
		}
	}
	return in
}

// requestTimeout bounds one request; a timeout counts as a failure.
const requestTimeout = 10 * time.Second

// opRec is one request's outcome. Times are offsets from the phase
// start on the monotonic clock.
type opRec struct {
	req      request
	intended time.Duration
	sent     time.Duration
	done     time.Duration
	lateness time.Duration // how far behind its intended send the harness sent it
	failed   bool          // transport error, timeout or missing key
	bad      int           // values that are not the bytes of any admissible write
}

// readObs is one read of a key the workload also writes: which write
// the returned value names, and when the read was in flight.
type readObs struct {
	rank       int
	seq        uint64
	start, end time.Duration
}

// phase is one measured run of traffic against one cluster.
type phase struct {
	c    *cluster
	base time.Time
	recs []opRec

	obsMu sync.Mutex
	obs   []readObs

	// The measured window [winStart, winEnd) and the process counters
	// read at its edges.
	winStart, winEnd time.Duration
	cpu0, cpu1       time.Duration
	mem0, mem1       runtime.MemStats
	st0, st1         []wire.ServerStats
	pc0, pc1         probeCounts
	syncs            []time.Duration
	traces           []kv.RequestTrace
	traceEvery       uint64 // keep one client trace in this many
	stopTraces       func()
}

func newPhase(c *cluster) *phase { return &phase{c: c, traceEvery: 1} }

// processCPU is the process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSS is the process's peak resident set size in bytes.
func maxRSS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// markStart opens the measured window: CPU, and on a traced run the
// allocator, server counters and client traces.
func (ph *phase) markStart() {
	if p := ph.c.p; p != nil {
		runtime.ReadMemStats(&ph.mem0)
		ph.st0 = ph.c.stats()
		ph.pc0 = p.counts()
		p.takeSyncs()
		ph.stopTraces = ph.collectTraces()
	}
	ph.winStart = time.Since(ph.base)
	ph.cpu0 = processCPU()
}

// markEnd closes the measured window.
func (ph *phase) markEnd() {
	ph.cpu1 = processCPU()
	ph.winEnd = time.Since(ph.base)
	if p := ph.c.p; p != nil {
		ph.pc1 = p.counts()
		ph.st1 = ph.c.stats()
		ph.syncs = p.takeSyncs()
		runtime.ReadMemStats(&ph.mem1)
	}
}

// finish stops trace collection once the phase's requests, including
// those still in flight when the window closed, have all returned.
func (ph *phase) finish() {
	if ph.stopTraces != nil {
		ph.stopTraces()
		ph.stopTraces = nil
	}
}

// traceRing is the client trace depth of a traced run; collectTraces
// drains it often enough that no trace is overwritten unread.
const (
	traceRing     = 8192
	tracePollEvry = 50 * time.Millisecond
)

// collectTraces polls Client.Traces until stopped, keeping every trace
// completed after the call.
func (ph *phase) collectTraces() (stop func()) {
	cl := ph.c.client
	var last uint64
	if t := cl.Traces(1); len(t) > 0 {
		last = t[0].Seq
	}
	poll := func() {
		newest := cl.Traces(1)
		if len(newest) == 0 || newest[0].Seq <= last {
			return
		}
		// Copy only the traces completed since the last poll; they come
		// newest first, so keep them in reverse.
		got := cl.Traces(int(min(newest[0].Seq-last, traceRing)))
		for i := len(got) - 1; i >= 0; i-- {
			if got[i].Seq > last {
				if got[i].Seq%ph.traceEvery == 0 {
					ph.traces = append(ph.traces, got[i])
				}
				last = got[i].Seq
			}
		}
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(tracePollEvry)
		defer t.Stop()
		for {
			select {
			case <-done:
				poll()
				return
			case <-t.C:
				poll()
			}
		}
	}()
	return func() {
		close(done)
		<-finished
	}
}

// do sends one request and checks what came back.
func (ph *phase) do(rq request, intended, sent time.Duration) opRec {
	c := ph.c
	w := c.w
	rec := opRec{req: rq, intended: intended, sent: sent}
	ctx, cancel := context.WithTimeout(context.Background(), requestTimeout)
	defer cancel()
	if rq.put {
		space := 0
		if w.WriteKeys > 0 {
			space = 1
		}
		err := c.client.Put(ctx, c.in.writeNames[rq.wkey], makeValue(c.in.seed, space, rq.wkey, rq.seq, rq.wsize))
		rec.done = time.Since(ph.base)
		rec.failed = err != nil
		return rec
	}
	names := make([]string, len(rq.keys))
	for i, r := range rq.keys {
		names[i] = c.in.names[r]
	}
	vals, err := c.client.MGet(ctx, names)
	rec.done = time.Since(ph.base)
	if err != nil {
		rec.failed = true
	}
	for i, r := range rq.keys {
		v, ok := vals[names[i]]
		if !ok {
			rec.failed = true
			continue
		}
		if !ph.checkRead(r, v, rec.sent, rec.done) {
			rec.bad++
		}
	}
	return rec
}

// checkRead reports whether v is byte-exactly some write's value for
// read key r. Reads of keys the workload also writes are kept for the
// history check, which decides whether that write was admissible.
func (ph *phase) checkRead(r int, v []byte, start, end time.Duration) bool {
	c := ph.c
	if c.w.WriteFrac == 0 || c.w.WriteKeys > 0 {
		return bytes.Equal(v, c.in.values[r])
	}
	seq, rank, ok := valueSeq(v)
	if !ok || rank != r {
		return false
	}
	want := c.in.values[r]
	if seq != 0 {
		want = makeValue(c.in.seed, 0, r, seq, c.w.WriteSize)
	}
	if !bytes.Equal(v, want) {
		return false
	}
	ph.obsMu.Lock()
	ph.obs = append(ph.obs, readObs{rank: r, seq: seq, start: start, end: end})
	ph.obsMu.Unlock()
	return true
}

// runOpen sends reqs at their intended instants regardless of
// responses, one goroutine per in-flight request, and measures the
// window [warm, warm+measure).
func (ph *phase) runOpen(reqs []request, warm, measure time.Duration) error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	ph.recs = make([]opRec, len(reqs))
	var wg sync.WaitGroup
	defer func() {
		wg.Wait() // in-flight requests finish on every path
		ph.finish()
	}()
	ph.base = time.Now()
	started := false
	for i := range reqs {
		at := time.Duration(reqs[i].at * float64(time.Second))
		if !started && at >= warm {
			if err := sl.until(ph.base.Add(warm)); err != nil {
				return err
			}
			ph.markStart()
			started = true
		}
		if err := sl.until(ph.base.Add(at)); err != nil {
			return err
		}
		sent := time.Since(ph.base)
		wg.Add(1)
		go func(i int, at, sent time.Duration) {
			defer wg.Done()
			rec := ph.do(reqs[i], at, sent)
			rec.lateness = sent - at
			ph.recs[i] = rec
		}(i, at, sent)
	}
	if !started {
		ph.markStart()
	}
	if err := sl.until(ph.base.Add(warm + measure)); err != nil {
		return err
	}
	ph.markEnd()
	return nil
}

// runClosed has each generator's caller send its next request as soon
// as the previous one returns, and measures the window
// [warm, warm+measure).
func (ph *phase) runClosed(gens []*reqGen, warm, measure time.Duration) {
	ph.base = time.Now()
	per := make([][]opRec, len(gens))
	var wg sync.WaitGroup
	stop := warm + measure
	for k, g := range gens {
		wg.Add(1)
		go func(k int, g *reqGen) {
			defer wg.Done()
			prev := time.Since(ph.base)
			for {
				now := time.Since(ph.base)
				if now >= stop {
					return
				}
				rec := ph.do(g.next(), now, now)
				// A closed-loop caller means to send the moment its
				// previous reply arrived; the gap is the harness's lateness.
				rec.lateness = now - prev
				per[k] = append(per[k], rec)
				prev = rec.done
			}
		}(k, g)
	}
	time.Sleep(warm)
	ph.markStart()
	time.Sleep(stop - time.Since(ph.base))
	ph.markEnd()
	wg.Wait()
	ph.finish()
	for _, r := range per {
		ph.recs = append(ph.recs, r...)
	}
	sort.Slice(ph.recs, func(i, j int) bool { return ph.recs[i].sent < ph.recs[j].sent })
}

// window summarizes a phase's measured window.
type window struct {
	reads, writes  []float64 // completion times in ms, sorted
	lateness       []float64 // ms, sorted
	scheduled      int       // requests intended inside the window
	completed      int       // successful completions inside the window
	seconds        float64
	cpuPerReq      float64 // µs of process CPU per completed request
	early, late    float64 // median latency of the window's first and last thirds (ms)
	attempted      int     // every request of the phase
	failed, badVal int     // failed requests and wrong values over the phase
	putsAcked      int     // successful puts over the phase
	putsInWindow   int     // successful puts intended inside the window
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// summarize builds the statistics of the phase's measured window.
func (ph *phase) summarize() window {
	var s window
	s.seconds = (ph.winEnd - ph.winStart).Seconds()
	third := (ph.winEnd - ph.winStart) / 3
	var early, late []float64
	for i := range ph.recs {
		r := &ph.recs[i]
		s.attempted++
		if r.failed {
			s.failed++
		}
		s.badVal += r.bad
		if r.req.put && !r.failed {
			s.putsAcked++
		}
		if !r.failed && r.done >= ph.winStart && r.done < ph.winEnd {
			s.completed++
		}
		if r.intended < ph.winStart || r.intended >= ph.winEnd {
			continue
		}
		s.scheduled++
		lat := ms(r.done - r.intended)
		if r.req.put {
			if !r.failed {
				s.putsInWindow++
			}
			s.writes = append(s.writes, lat)
		} else {
			s.reads = append(s.reads, lat)
		}
		s.lateness = append(s.lateness, ms(r.lateness))
		switch {
		case r.intended < ph.winStart+third:
			early = append(early, lat)
		case r.intended >= ph.winEnd-third:
			late = append(late, lat)
		}
	}
	sort.Float64s(s.reads)
	sort.Float64s(s.writes)
	sort.Float64s(s.lateness)
	sort.Float64s(early)
	sort.Float64s(late)
	s.early, s.late = quantile(early, 0.5), quantile(late, 0.5)
	if s.completed > 0 {
		s.cpuPerReq = float64(ph.cpu1-ph.cpu0) / float64(time.Microsecond) / float64(s.completed)
	}
	return s
}

// slice is one stretch of a measured window: the latencies (ms) of the
// requests intended in it and how late they were sent.
type slice struct {
	reads, writes, lateness []float64
	maxLate                 float64 // the longest send delay in the stretch (ms)
	// stall is the longest send delay in this stretch or the next,
	// while the stretch's requests may still be in flight (ms).
	stall float64
}

// slices splits the measured window by intended send time into
// stretches of d (the last takes any remainder).
func (ph *phase) slices(d time.Duration) []slice {
	n := max(int((ph.winEnd-ph.winStart)/d), 1)
	out := make([]slice, n)
	for i := range ph.recs {
		r := &ph.recs[i]
		if r.intended < ph.winStart || r.intended >= ph.winEnd {
			continue
		}
		sl := &out[min(int((r.intended-ph.winStart)/d), n-1)]
		lat := ms(r.done - r.intended)
		if r.req.put {
			sl.writes = append(sl.writes, lat)
		} else {
			sl.reads = append(sl.reads, lat)
		}
		sl.lateness = append(sl.lateness, ms(r.lateness))
		sl.maxLate = max(sl.maxLate, ms(r.lateness))
	}
	for k := range out {
		out[k].stall = out[k].maxLate
		if k+1 < n {
			out[k].stall = max(out[k].stall, out[k+1].maxLate)
		}
	}
	return out
}

func (s window) achievedRatio() float64 {
	if s.scheduled == 0 {
		return 0
	}
	return float64(s.completed) / float64(s.scheduled)
}

func (s window) rps() float64 {
	if s.seconds <= 0 {
		return 0
	}
	return float64(s.completed) / s.seconds
}

// quantile is the exact nearest-rank q-quantile of sorted samples.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
