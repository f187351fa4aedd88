package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"
)

// writeSpan is one put as the client saw it: the interval within which
// it took effect (end is never for a put that did not return success).
type writeSpan struct {
	seq        uint64
	start, end time.Duration
}

const (
	never  = time.Duration(math.MaxInt64)
	before = time.Duration(math.MinInt64 / 2) // the preload, done before any phase
)

// history is every put a cluster has seen, by key rank, in offsets
// from the cluster's epoch.
type history map[int][]writeSpan

// record adds the phase's puts to the cluster's history.
func (c *cluster) record(ph *phase) {
	off := ph.base.Sub(c.epoch)
	for i := range ph.recs {
		r := &ph.recs[i]
		if !r.req.put {
			continue
		}
		end := r.done + off
		if r.failed {
			end = never
		}
		c.hist[r.req.wkey] = append(c.hist[r.req.wkey], writeSpan{seq: r.req.seq, start: r.sent + off, end: end})
	}
}

// admissible reports whether a read in flight over [rs, re] may return
// key r's write seq (0 = the preloaded value): the write must have
// started before the read ended, and no other write may have started
// after it finished and finished before the read started.
func (h history) admissible(r int, seq uint64, rs, re time.Duration, preloaded bool) bool {
	ws := h[r]
	w := writeSpan{start: before, end: before}
	if seq == 0 {
		if !preloaded {
			return false
		}
	} else {
		found := false
		for _, o := range ws {
			if o.seq == seq {
				w, found = o, true
				break
			}
		}
		if !found {
			return false
		}
	}
	if w.start > re {
		return false
	}
	for _, o := range ws {
		if o.start > w.end && o.end < rs {
			return false
		}
	}
	return true
}

// checkHistory counts the phase's reads of written keys that returned a
// value no order of the cluster's writes allows.
func (ph *phase) checkHistory() int {
	off := ph.base.Sub(ph.c.epoch)
	bad := 0
	for _, o := range ph.obs {
		if !ph.c.hist.admissible(o.rank, o.seq, o.start+off, o.end+off, true) {
			bad++
		}
	}
	return bad
}

// checkedKeys lists the keys the final check reads: every read key when
// writes share the read keyspace, else every written key.
func (c *cluster) checkedKeys() (names []string, ranks []int) {
	w, h := c.w, c.hist
	if w.WriteKeys == 0 {
		for r := 0; r < w.Keys; r++ {
			names, ranks = append(names, keyName(r)), append(ranks, r)
		}
		return names, ranks
	}
	for r := 0; r < w.WriteKeys; r++ {
		if len(h[r]) > 0 {
			names, ranks = append(names, writeKeyName(r)), append(ranks, r)
		}
	}
	return names, ranks
}

// readChunk is how many keys one check multiget reads.
const readChunk = 64

// readAll reads every named key through the cluster's client.
func (c *cluster) readAll(names []string) (map[string][]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out := make(map[string][]byte, len(names))
	for i := 0; i < len(names); i += readChunk {
		j := min(i+readChunk, len(names))
		vals, err := c.client.MGet(ctx, names[i:j])
		if err != nil {
			return nil, fmt.Errorf("check read: %w", err)
		}
		for k, v := range vals {
			out[k] = v
		}
	}
	return out, nil
}

// finalCheck runs once the cluster is quiet: it reads every checked key
// and counts values that are not the bytes of the write the history
// says must (or may) be last. It returns what it read, for the crash
// check to compare against.
func (c *cluster) finalCheck() (map[string][]byte, int, error) {
	h := c.hist
	names, ranks := c.checkedKeys()
	got, err := c.readAll(names)
	if err != nil {
		return nil, 0, err
	}
	now := time.Since(c.epoch)
	shared := c.w.WriteKeys == 0
	space := 1
	if shared {
		space = 0
	}
	bad := 0
	for i, name := range names {
		r := ranks[i]
		v, ok := got[name]
		if !ok {
			bad++
			continue
		}
		seq, rank, ok := valueSeq(v)
		if !ok || rank != r || !h.admissible(r, seq, now, now, shared) {
			bad++
			continue
		}
		want := c.in.values[r]
		if seq != 0 {
			want = makeValue(c.in.seed, space, r, seq, c.w.WriteSize)
		}
		if !bytes.Equal(v, want) {
			bad++
		}
	}
	return got, bad, nil
}

// crashCheck kills server 0 like kill -9, discards the log bytes no
// fsync covered, restarts it on the same WAL directory and rereads
// every key: the contents must equal what the quiesced cluster held
// before the crash. It returns the number of keys that differ.
func (c *cluster) crashCheck(names []string, want map[string][]byte) (int, error) {
	if err := c.crashRestart(0); err != nil {
		return 0, err
	}
	after, err := c.readAll(names)
	if err != nil {
		return 0, err
	}
	bad := 0
	for _, name := range names {
		b, inBefore := want[name]
		a, inAfter := after[name]
		if inBefore != inAfter || !bytes.Equal(a, b) {
			bad++
		}
	}
	return bad, nil
}
