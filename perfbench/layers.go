package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/wire"
)

// stageTolerance is how far the straggler path's mean stage times may
// sum from the traced rct_mean_ms, as a share of it, before the traced
// run is rejected.
const stageTolerance = 0.05

// defaultSmallBytes is the small/large split used for the small-op wait
// when a workload runs without size-class pools (the classifier's own
// default threshold).
const defaultSmallBytes = 64 << 10

// layerMetrics computes every per-layer metric from the traced run's
// layer phase plus micro-timings of the wire codec and the store on the
// workload's own op mix. It writes the phase's spans to spanPath.
func layerMetrics(o *outcome, spanPath string) (map[string]float64, []string, error) {
	ph, s := o.layer, o.layerWin
	w := ph.c.w
	m := map[string]float64{}
	var problems []string
	reqs := float64(s.completed)

	m["load.lateness_p99_ms"] = quantile(s.lateness, 0.99)
	m["load.achieved_ratio"] = s.achievedRatio()

	p0, p1 := ph.pc0, ph.pc1
	m["kv.client.writes_per_req"] = float64(p1.clientWrites-p0.clientWrites) / reqs
	m["kv.client.bytes_per_req"] = float64(p1.clientBytes-p0.clientBytes) / reqs

	// Server counters, summed over servers, as window deltas.
	var served, batches, batchOps, frames, flushes uint64
	var pushed, srpt, lrpt, promoted, routed, stolen uint64
	var fsyncs, coOps, coRecs uint64
	var demandErr float64
	threshold := int64(defaultSmallBytes)
	for i := range ph.st1 {
		a, b := ph.st0[i], ph.st1[i]
		served += b.Served - a.Served
		batches += b.Batches - a.Batches
		batchOps += b.BatchOps - a.BatchOps
		frames += b.RespFrames - a.RespFrames
		flushes += b.RespFlushes - a.RespFlushes
		if a.Decisions != nil && b.Decisions != nil {
			pushed += b.Decisions.Pushed - a.Decisions.Pushed
			srpt += b.Decisions.SRPTFirst - a.Decisions.SRPTFirst
			lrpt += b.Decisions.LRPTDemoted - a.Decisions.LRPTDemoted
			promoted += b.Decisions.Promotions - a.Decisions.Promotions
		}
		if a.Pools != nil && b.Pools != nil {
			routed += b.Pools.SmallRouted + b.Pools.LargeRouted - a.Pools.SmallRouted - a.Pools.LargeRouted
			stolen += b.Pools.Stolen - a.Pools.Stolen
			threshold = b.Pools.ThresholdBytes
		}
		if a.WAL != nil && b.WAL != nil {
			fsyncs += b.WAL.Fsyncs - a.WAL.Fsyncs
			coOps += b.WAL.CoalescedOps - a.WAL.CoalescedOps
			coRecs += b.WAL.CoalescedRecords - a.WAL.CoalescedRecords
		}
		if b.DemandError != nil {
			demandErr += float64(b.DemandError.P50Nanos) / float64(len(ph.st1))
		}
	}
	m["kv.server.writes_per_op"] = ratio(float64(p1.serverWrites-p0.serverWrites), float64(served))
	m["kv.server.reads_per_op"] = ratio(float64(p1.serverReads-p0.serverReads), float64(served))
	m["kv.server.flush_coalesce"] = ratio(float64(frames), float64(flushes))
	m["kv.server.batch_width"] = ratio(float64(batchOps), float64(batches))
	m["sched.push_ns"] = ratio(float64(p1.pushNanos-p0.pushNanos), float64(p1.pushes-p0.pushes))
	m["sched.pop_ns"] = ratio(float64(p1.popNanos-p0.popNanos), float64(p1.pops-p0.pops))
	m["core.srpt_first_frac"] = ratio(float64(srpt), float64(pushed))
	m["core.lrpt_last_frac"] = ratio(float64(lrpt), float64(pushed))
	m["core.promoted_frac"] = ratio(float64(promoted), float64(pushed))
	m["core.demand_err_p50_ms"] = demandErr / float64(time.Millisecond)
	m["sizeclass.stolen_frac"] = ratio(float64(stolen), float64(routed))
	m["wal.fsyncs_per_write"] = ratio(float64(fsyncs), float64(s.putsInWindow))
	m["wal.fold_ratio"] = 1 // one record per write unless the log coalesces
	if coOps > 0 {
		m["wal.fold_ratio"] = float64(coRecs) / float64(coOps)
	}
	syncs := durationsMs(ph.syncs)
	m["wal.sync_ms_p50"] = quantile(syncs, 0.5)
	m["wal.sync_ms_p99"] = quantile(syncs, 0.99)

	m["runtime.alloc_bytes_per_req"] = float64(ph.mem1.TotalAlloc-ph.mem0.TotalAlloc) / reqs
	m["runtime.mallocs_per_req"] = float64(ph.mem1.Mallocs-ph.mem0.Mallocs) / reqs
	m["runtime.gc_cycles_per_kreq"] = float64(ph.mem1.NumGC-ph.mem0.NumGC) / reqs * 1000

	// Per-op server timelines from the client's traces.
	var waits, services, smallWaits, stragglerNet []float64
	for _, tr := range ph.traces {
		for _, op := range tr.Ops {
			if op.Err != "" {
				continue
			}
			waits = append(waits, ms(op.Wait))
			services = append(services, ms(op.Service))
			if int64(op.Bytes) < threshold {
				smallWaits = append(smallWaits, ms(op.Wait))
			}
		}
		if st := tr.Straggler(); st != nil && st.Err == "" {
			stragglerNet = append(stragglerNet, ms(st.End-st.Start-st.Wait-st.Service))
		}
	}
	for _, xs := range [][]float64{waits, services, smallWaits, stragglerNet} {
		sort.Float64s(xs)
	}
	m["sched.wait_p50_ms"] = quantile(waits, 0.5)
	m["sched.wait_p99_ms"] = quantile(waits, 0.99)
	m["kv.server.service_p50_ms"] = quantile(services, 0.5)
	m["sizeclass.small_wait_p99_ms"] = quantile(smallWaits, 0.99)
	m["kv.client.straggler_net_ms_p50"] = quantile(stragglerNet, 0.5)

	st, err := stages(ph, spanPath)
	if err != nil {
		return nil, nil, err
	}
	m["stage.lateness_ms"] = st.lateness
	m["stage.client_ms"] = st.client
	m["stage.net_ms"] = st.net
	m["stage.wait_ms"] = st.wait
	m["stage.service_ms"] = st.service
	rct := mean(s.reads)
	sum := st.lateness + st.client + st.net + st.wait + st.service
	m["stage.sum_err_frac"] = math.Abs(sum-rct) / rct
	fmt.Printf("stages: %d of %d traced multigets matched; straggler path sums to %.4f ms vs traced rct_mean_ms %.4f ms (tolerance %.0f%%)\n",
		st.matched, len(ph.traces), sum, rct, stageTolerance*100)
	if m["stage.sum_err_frac"] > stageTolerance {
		problems = append(problems, fmt.Sprintf("straggler stages sum to %.4f ms, traced rct_mean_ms is %.4f ms", sum, rct))
	}
	for name, self := range st.self {
		fmt.Printf("span self time %-18s mean %.4f ms over %d spans\n", name, self.mean(), self.n)
	}

	wireEnc, wireDec, wireBytes, err := timeWire(w, ph.c.in)
	if err != nil {
		return nil, nil, err
	}
	m["wire.encode_ns_per_op"], m["wire.decode_ns_per_op"], m["wire.bytes_per_op"] = wireEnc, wireDec, wireBytes
	getNs, putNs, err := timeStore(w, ph.c.in)
	if err != nil {
		return nil, nil, err
	}
	m["kv.store.get_ns"], m["kv.store.put_ns"] = getNs, putNs
	return m, problems, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	sort.Float64s(out)
	return out
}

// stageMeans is the mean time a traced multiget's straggler path spent
// in each stage: generator lateness, client work before dispatch and
// after the last reply, network and transport, queue wait and service.
// On an open loop the stages of one request sum exactly to its
// completion time; on a closed loop the lateness stage is the caller's
// gap between a reply and its next send, which the completion time
// does not include.
type stageMeans struct {
	lateness, client, net, wait, service float64
	matched                              int
	self                                 map[string]*acc
}

type acc struct {
	sum float64
	n   int
}

func (a *acc) add(x float64) { a.sum += x; a.n++ }
func (a *acc) mean() float64 { return ratio(a.sum, float64(a.n)) }

// span is one layer boundary of one request, in microseconds since the
// phase start. Spans of one request share ID; Parent is the enclosing
// span's Span number (0 = none).
type span struct {
	ID     int     `json:"id"`
	Span   int     `json:"span"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

// maxSpanRequests bounds how many requests' spans a run writes out.
const maxSpanRequests = 20000

// stages matches each traced multiget to the harness record that sent
// it, decomposes its completion time along the straggler, and writes
// the spans of (a sample of) the window's requests.
func stages(ph *phase, spanPath string) (stageMeans, error) {
	out := stageMeans{self: map[string]*acc{}}
	byKeys := map[string][]int{}
	inWindow := 0
	for i := range ph.recs {
		r := &ph.recs[i]
		if r.failed || r.intended < ph.winStart || r.intended >= ph.winEnd {
			continue
		}
		inWindow++
		if !r.req.put {
			k := joinKeys(r.req.keys)
			byKeys[k] = append(byKeys[k], i)
		}
	}
	every := inWindow/maxSpanRequests + 1
	f, err := os.Create(spanPath)
	if err != nil {
		return out, err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	matched := map[int]*kv.RequestTrace{}
	for t := range ph.traces {
		tr := &ph.traces[t]
		ranks := make([]int, len(tr.Ops))
		for i, op := range tr.Ops {
			ranks[i], _ = strconv.Atoi(strings.TrimPrefix(op.Key, "k"))
		}
		start := tr.Start.Sub(ph.base)
		for _, i := range byKeys[joinKeys(ranks)] {
			r := &ph.recs[i]
			if matched[i] == nil && r.sent <= start && start <= r.done {
				matched[i] = tr
				break
			}
		}
	}
	var sums [5]float64
	for i := range ph.recs {
		r := &ph.recs[i]
		if r.failed || r.intended < ph.winStart || r.intended >= ph.winEnd {
			continue
		}
		tr := matched[i]
		if !r.req.put && tr != nil {
			st := tr.Straggler()
			if st != nil {
				t0 := tr.Start.Sub(ph.base)
				sums[0] += ms(r.lateness)
				sums[1] += ms(t0-r.sent+st.Start) + ms(r.done-t0-st.End)
				sums[2] += ms(st.End - st.Start - st.Wait - st.Service)
				sums[3] += ms(st.Wait)
				sums[4] += ms(st.Service)
				out.matched++
			}
		}
		if i%every == 0 && (r.req.put || tr != nil) {
			for _, sp := range requestSpans(i, r, tr, ph.base) {
				if err := enc.Encode(sp); err != nil {
					return out, err
				}
			}
		}
	}
	if out.matched > 0 {
		n := float64(out.matched)
		out.lateness, out.client, out.net, out.wait, out.service = sums[0]/n, sums[1]/n, sums[2]/n, sums[3]/n, sums[4]/n
	}
	if err := bw.Flush(); err != nil {
		return out, err
	}
	return out, selfTimes(spanPath, out.self)
}

func joinKeys(ranks []int) string {
	var b strings.Builder
	for _, r := range ranks {
		fmt.Fprintf(&b, "%d,", r)
	}
	return b.String()
}

// requestSpans lays out one request's spans: the harness's view
// (intended send to completion), the client call, and for a multiget
// each op with the server's queue wait and service inside it. Wait and
// service durations are the server's own; their placement inside the
// op assumes the transport time splits evenly around them.
func requestSpans(id int, r *opRec, tr *kv.RequestTrace, base time.Time) []span {
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	spans := []span{{ID: id, Span: 1, Name: "load.request", Start: us(r.intended), End: us(r.done)}}
	if r.req.put {
		return append(spans, span{ID: id, Span: 2, Parent: 1, Name: "kv.client.put", Start: us(r.sent), End: us(r.done)})
	}
	spans = append(spans, span{ID: id, Span: 2, Parent: 1, Name: "kv.client.mget", Start: us(r.sent), End: us(r.done)})
	t0 := tr.Start.Sub(base)
	n := 3
	for _, op := range tr.Ops {
		opSpan := n
		spans = append(spans, span{ID: id, Span: opSpan, Parent: 2, Name: "kv.client.op", Start: us(t0 + op.Start), End: us(t0 + op.End)})
		half := (op.End - op.Start - op.Wait - op.Service) / 2
		ws := t0 + op.Start + half
		spans = append(spans,
			span{ID: id, Span: n + 1, Parent: opSpan, Name: "kv.server.wait", Start: us(ws), End: us(ws + op.Wait)},
			span{ID: id, Span: n + 2, Parent: opSpan, Name: "kv.server.service", Start: us(ws + op.Wait), End: us(ws + op.Wait + op.Service)})
		n += 3
	}
	return spans
}

// selfTimes reads the span file back and accumulates each span name's
// self time: its duration minus the part its children cover.
func selfTimes(path string, self map[string]*acc) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	var group []span
	flush := func() {
		for _, p := range group {
			var kids [][2]float64
			for _, c := range group {
				if c.Parent == p.Span {
					kids = append(kids, [2]float64{max(c.Start, p.Start), min(c.End, p.End)})
				}
			}
			a := self[p.Name]
			if a == nil {
				a = &acc{}
				self[p.Name] = a
			}
			a.add((p.End - p.Start - covered(kids)) / 1000)
		}
		group = group[:0]
	}
	for {
		var sp span
		if err := dec.Decode(&sp); err != nil {
			break
		}
		if len(group) > 0 && group[0].ID != sp.ID {
			flush()
		}
		group = append(group, sp)
	}
	flush()
	return nil
}

// covered is the length of the union of intervals.
func covered(iv [][2]float64) float64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	total, end := 0.0, -1e300
	for _, x := range iv {
		if x[1] <= x[0] {
			continue
		}
		if x[0] > end {
			total += x[1] - x[0]
			end = x[1]
		} else if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// microOps is how many operations each micro-timing runs; microReps
// how many times, reporting the median.
const (
	microOps  = 20000
	microReps = 5
)

// timeWire encodes and decodes the workload's own request shapes — one
// batch frame per multiget, one frame per put, and a response per op
// carrying the key's value — and returns ns per op each way and bytes
// per op.
func timeWire(w *workload, in *inputs) (encNs, decNs, bytesPerOp float64, err error) {
	gen := newReqGen(w, in.read, in.write, in.seed, 7)
	var frames [][]wire.Request
	var resps []wire.Response
	ops := 0
	for ops < microOps {
		rq := gen.next()
		var batch []wire.Request
		if rq.put {
			v := makeValue(in.seed, 0, rq.wkey, rq.seq, rq.wsize)
			batch = append(batch, wire.Request{ID: uint64(ops), Type: wire.OpPut, Key: keyName(rq.wkey), Value: v})
			resps = append(resps, wire.Response{ID: uint64(ops), Status: wire.StatusOK})
		}
		for _, r := range rq.keys {
			batch = append(batch, wire.Request{ID: uint64(ops + len(batch)), Type: wire.OpGet, Key: keyName(r),
				Tags: wire.Tags{Fanout: uint32(len(rq.keys))}})
			resps = append(resps, wire.Response{ID: uint64(ops + len(batch)), Status: wire.StatusOK, Value: in.values[r]})
		}
		frames = append(frames, batch)
		ops += len(batch)
	}
	var buf bytes.Buffer
	var enc, dec []float64
	for rep := 0; rep < microReps; rep++ {
		buf.Reset()
		wr := wire.NewWriter(&buf)
		start := time.Now()
		for _, f := range frames {
			if err := wr.WriteBatch(f); err != nil {
				return 0, 0, 0, fmt.Errorf("wire micro-timing: %w", err)
			}
		}
		for i := range resps {
			if err := wr.EncodeResponse(&resps[i]); err != nil {
				return 0, 0, 0, fmt.Errorf("wire micro-timing: %w", err)
			}
		}
		if err := wr.Flush(); err != nil {
			return 0, 0, 0, fmt.Errorf("wire micro-timing: %w", err)
		}
		enc = append(enc, float64(time.Since(start))/float64(2*ops))
		size := buf.Len()
		rd := wire.NewReader(bytes.NewReader(buf.Bytes()))
		var reqs []wire.Request
		var resp wire.Response
		start = time.Now()
		for range frames {
			if _, err := rd.ReadRequests(&reqs); err != nil {
				return 0, 0, 0, fmt.Errorf("wire micro-timing: %w", err)
			}
		}
		for range resps {
			if err := rd.ReadResponse(&resp); err != nil {
				return 0, 0, 0, fmt.Errorf("wire micro-timing: %w", err)
			}
		}
		dec = append(dec, float64(time.Since(start))/float64(2*ops))
		bytesPerOp = float64(size) / float64(ops)
	}
	return median(enc), median(dec), bytesPerOp, nil
}

// timeStore times kv.Store gets on the workload's read-key draws and
// puts of its write values, on a store holding the preloaded keyspace.
func timeStore(w *workload, in *inputs) (getNs, putNs float64, err error) {
	st := kv.NewStore()
	for r, v := range in.values {
		st.Put(keyName(r), v)
	}
	rng := newRand(in.seed, 8)
	gets := make([]string, microOps)
	for i := range gets {
		gets[i] = keyName(in.read.sample(rng))
	}
	puts := make([]string, microOps)
	vals := make([][]byte, microOps)
	for i := range puts {
		r := in.write.sample(rng)
		puts[i], vals[i] = keyName(r), makeValue(in.seed, 0, r, uint64(i+1), w.WriteSize)
	}
	var g, p []float64
	for rep := 0; rep < microReps; rep++ {
		start := time.Now()
		for _, k := range gets {
			if _, ok := st.Get(k); !ok {
				return 0, 0, fmt.Errorf("store micro-timing: %s missing", k)
			}
		}
		g = append(g, float64(time.Since(start))/microOps)
		start = time.Now()
		for i, k := range puts {
			st.Put(k, vals[i])
		}
		p = append(p, float64(time.Since(start))/microOps)
	}
	return median(g), median(p), nil
}
