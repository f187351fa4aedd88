package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Validity gates of a fixed-rate sub-window: below this achieved ratio,
// or above this generator lateness, the harness (or an overloaded
// system) rather than the system's latency is being measured, and the
// sub-window does not count. The lateness bound sits above what a
// shared host's own stalls cause: a virtual CPU descheduled for 1-10 ms
// at a time, about 2% of the time, delays the generator with everything
// else (the host fact stall_ms_per_s). With fewer than
// minValidSubWindows valid sub-windows the run reports all of them and
// marks the point invalid.
const (
	minAchievedRatio   = 0.99
	maxLatenessP99Ms   = 5.0
	minValidSubWindows = 3
)

// An open-loop run splits its measured seconds between the fixed-rate
// point, the saturation window and the capacity probes. The fixed-rate
// point is measured in subWindows sub-windows spread over the run, and
// a closed-loop run in closedSessions sessions, so that one stretch of
// host contention moves one of them only.
// The latency metrics come from the windows' undisturbed slices: a
// shared host stops the whole virtual machine for 1-50 ms at a time,
// often enough that one such stall inside a window decides its p99.
// Whatever sends requests (the open-loop generator, which wakes for
// every send, or a closed-loop caller, which sends the moment its reply
// arrives) is late by about as long as each stall lasts, while without
// one it is late by well under stallMs. A slice is disturbed when a
// send in it, or in the next slice while its requests may still be in
// flight, was stallMs late. Every request of an undisturbed slice, slow
// or not, counts. When fewer than minQuietShare of the slices are
// undisturbed, that share with the shortest delays is used instead.
// A capacity probe passes when p99 meets the limit, the achieved rate
// keeps up with the offered rate, and the last third of the window is
// not slower than the first (no growing backlog).
const (
	subWindows         = 5
	closedSessions     = 3
	closedTraceEvery   = 8 // a closed loop completes too many requests to keep every trace
	fixedShare         = 0.65
	saturationShare    = 0.1
	capacityShare      = 0.25
	sliceLen           = 50 * time.Millisecond
	stallMs            = 1.0
	minQuietShare      = 0.25
	capacityProbes     = 4
	saturationCallers  = 128
	saturationHeadroom = 1.25
	crossingBand       = 4.0
	fixedWarm          = time.Second
	probeWarm          = 500 * time.Millisecond
	closedWarm         = 500 * time.Millisecond
	backlogGrowth      = 1.5
	backlogSlackMs     = 1.0
)

// outcome is what one full measurement of a workload produced.
type outcome struct {
	e2e       map[string]float64
	samples   map[string]int // samples behind each percentile metric, over all sub-windows
	attempted int
	failed    int
	wrong     int // wrong values, inadmissible reads, lost writes
	problems  []string
	layer     *phase // the phase per-layer metrics are read from
	layerWin  window
	invalid   string               // why the fixed-rate point is not to be trusted ("" = valid)
	subs      []map[string]float64 // each sub-window's own statistics
}

func (o *outcome) problem(n int, format string) {
	if n > 0 {
		o.wrong += n
		o.problems = append(o.problems, fmt.Sprintf(format, n))
	}
}

// runner measures one workload for one seed.
type runner struct {
	w       *workload
	in      *inputs
	seconds float64
	dir     string
	traced  bool
	boots   int
	setups  []float64
	// lieSync makes every log's fsyncs cover nothing, so a crash loses
	// acknowledged writes: the fault the crash check must catch.
	lieSync bool
}

func secs(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }

// open boots a fresh cluster and records its set-up time.
func (r *runner) open(crash bool) (*cluster, error) {
	r.boots++
	dir := filepath.Join(r.dir, fmt.Sprintf("cluster-%d", r.boots))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	opts := bootOptions{traceDepth: -1, trackWAL: crash, lieSync: r.lieSync}
	if r.traced {
		opts.probes = &probes{}
		opts.traceDepth = traceRing
	}
	c, err := boot(r.w, r.in, dir, opts)
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, c.setup.Seconds())
	return c, nil
}

// finish checks that the quiet cluster holds exactly what its history
// allows (and, with crash set, still does after a crash and restart),
// then tears it down.
func (r *runner) finish(o *outcome, c *cluster, crash bool) error {
	defer c.close()
	got, bad, err := c.finalCheck()
	if err != nil {
		return err
	}
	o.problem(bad, "%d keys hold a value their write history does not allow")
	if !crash {
		return nil
	}
	names, _ := c.checkedKeys()
	lost, err := c.crashCheck(names, got)
	if err != nil {
		return err
	}
	o.problem(lost, "%d keys differ after a crash and restart")
	return nil
}

// onCluster runs body on a fresh cluster and finishes it.
func (r *runner) onCluster(o *outcome, crash bool, body func(c *cluster) error) error {
	c, err := r.open(crash)
	if err != nil {
		return err
	}
	if err := body(c); err != nil {
		c.close()
		return err
	}
	return r.finish(o, c, crash)
}

// phase runs one phase on c and checks every value it read.
func (r *runner) phase(o *outcome, c *cluster, drive func(*phase) error) (*phase, window, error) {
	ph := newPhase(c)
	if err := drive(ph); err != nil {
		return nil, window{}, err
	}
	s := ph.summarize()
	c.record(ph)
	o.attempted += s.attempted
	o.failed += s.failed
	o.problem(s.badVal, "%d read values are not the bytes of any write")
	o.problem(ph.checkHistory(), "%d reads returned a value no order of the writes allows")
	return ph, s, nil
}

// closedGens builds one request generator per closed-loop caller.
func (r *runner) closedGens(callers int, stream uint64) []*reqGen {
	gens := make([]*reqGen, callers)
	for k := range gens {
		gens[k] = newReqGen(r.w, r.in.read, r.in.write, r.in.seed, stream+uint64(k))
	}
	return gens
}

func (r *runner) run() (*outcome, error) {
	o := &outcome{e2e: map[string]float64{}, samples: map[string]int{}}
	var err error
	if r.w.openLoop() {
		err = r.runOpen(o)
	} else {
		err = r.runClosed(o)
	}
	if err != nil {
		return nil, err
	}
	o.e2e["setup_s"] = median(r.setups)
	o.samples["setup_s"] = len(r.setups)
	o.e2e["max_rss_mb"] = float64(maxRSS()) / 1e6
	return o, nil
}

// runOpen measures the fixed-rate point, the saturation throughput and
// the capacity. The fixed-rate point runs on its own cluster in
// subWindows sub-windows spread over the whole run: one before and one
// after the saturation window, then one after each capacity probe but
// the last. Saturation and the capacity search each get a fresh cluster.
func (r *runner) runOpen(o *outcome) (err error) {
	w := r.w
	fixed, err := r.open(w.CrashCheck)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			fixed.close()
		}
	}()
	var subs []window
	var slices []slice
	subWindow := func() error {
		k := len(subs)
		warm := probeWarm
		if k == 0 {
			warm = fixedWarm
		}
		measure := secs(fixedShare * r.seconds / subWindows)
		reqs := newReqGen(w, r.in.read, r.in.write, r.in.seed, uint64(1+k)).schedule(w.Rate, (warm + measure).Seconds())
		ph, s, err := r.phase(o, fixed, func(ph *phase) error { return ph.runOpen(reqs, warm, measure) })
		if err != nil {
			return err
		}
		if k == 0 {
			o.layer, o.layerWin = ph, s
		}
		subs = append(subs, s)
		slices = append(slices, ph.slices(sliceLen)...)
		return nil
	}
	if err := subWindow(); err != nil {
		return err
	}

	// Saturation: a closed loop of callers keeps a cluster busy.
	var peak float64
	err = r.onCluster(o, false, func(c *cluster) error {
		_, sat, err := r.phase(o, c, func(ph *phase) error {
			ph.runClosed(r.closedGens(saturationCallers, 50), closedWarm, secs(saturationShare*r.seconds))
			return nil
		})
		peak = sat.rps()
		return err
	})
	if err != nil {
		return err
	}
	o.e2e["peak_rps"] = peak
	if err := subWindow(); err != nil {
		return err
	}

	// Capacity: bisect between half the fixed rate and somewhat above
	// the saturation throughput, then read the rate where p99 crosses
	// the limit off every probe near it.
	limit := ms(w.P99Limit)
	var pts []ratePoint
	lo, hi := w.Rate/2, math.Max(saturationHeadroom*peak, 1.5*w.Rate)
	measure := secs(capacityShare * r.seconds / capacityProbes)
	err = r.onCluster(o, false, func(c *cluster) error {
		for i := 0; i < capacityProbes; i++ {
			if i > 0 && len(subs) < subWindows {
				if err := subWindow(); err != nil {
					return err
				}
			}
			rate := (lo + hi) / 2
			reqs := newReqGen(w, r.in.read, r.in.write, r.in.seed, uint64(100+i)).schedule(rate, (probeWarm + measure).Seconds())
			_, ps, err := r.phase(o, c, func(ph *phase) error { return ph.runOpen(reqs, probeWarm, measure) })
			if err != nil {
				return err
			}
			p99 := quantile(mergeSorted(ps.reads, ps.writes), 0.99)
			pts = append(pts, ratePoint{rate, p99})
			pass := p99 <= limit && ps.achievedRatio() >= minAchievedRatio && ps.late <= backlogGrowth*ps.early+backlogSlackMs
			fmt.Printf("capacity probe %d: offered %.1f req/s achieved %.1f (ratio %.4f) p99 %.3f ms early/late p50 %.3f/%.3f ms pass=%v\n",
				i+1, rate, ps.rps(), ps.achievedRatio(), p99, ps.early, ps.late, pass)
			if pass {
				lo = rate
			} else {
				hi = rate
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	o.e2e["capacity_rps"] = crossing(pts, limit, lo, hi)

	// The fixed-rate point: only valid sub-windows count.
	walBytes := fixed.walBytes()
	if err := r.finish(o, fixed, w.CrashCheck); err != nil {
		return err
	}
	var valid []window
	putsAcked := 0
	for k, s := range subs {
		putsAcked += s.putsAcked
		late99, achieved := quantile(s.lateness, 0.99), s.achievedRatio()
		ok := achieved >= minAchievedRatio && late99 <= maxLatenessP99Ms
		fmt.Printf("fixed-rate sub-window %d: offered %.1f req/s achieved ratio %.4f generator lateness p50 %.4f p99 %.4f max %.4f ms valid=%v\n",
			k+1, w.Rate, achieved, quantile(s.lateness, 0.5), late99, quantile(s.lateness, 1), ok)
		if ok {
			valid = append(valid, s)
		}
	}
	recordSubs(o, subs)
	quietLate99 := quietLatency(o, slices)
	// A benchmark run always reports; the output and the run's record
	// say when the point is not to be trusted.
	if len(valid) < minValidSubWindows {
		o.invalid = fmt.Sprintf("only %d of %d fixed-rate sub-windows kept up with the schedule (achieved ratio >= %.2f, generator lateness p99 <= %.1f ms); all are used for cpu_us_per_req",
			len(valid), len(subs), minAchievedRatio, maxLatenessP99Ms)
		valid = subs
	} else if quietLate99 > maxLatenessP99Ms {
		o.invalid = fmt.Sprintf("generator lateness p99 %.3f ms in the slices the latencies come from is above %.1f ms", quietLate99, maxLatenessP99Ms)
	}
	if o.invalid != "" {
		fmt.Println("FIXED-RATE POINT INVALID:", o.invalid)
	}
	o.e2e["cpu_us_per_req"] = cpuPerReq(valid)
	o.e2e["disk_bytes_per_write"] = float64(walBytes) / float64(putsAcked+w.Keys)
	return nil
}

// ratePoint is one measured offered rate and its p99 (reads and writes).
type ratePoint struct{ rate, p99 float64 }

// crossing estimates the rate at which p99 reaches limit inside the
// bisection's final bracket [lo, hi]: where a line through log p99
// against rate crosses the limit, fitted over the points within a
// factor crossingBand of the limit by the median of pairwise slopes so
// one disturbed probe cannot tilt it. Near the knee p99 is too noisy to
// extrapolate from, so the estimate stays inside the bracket; with
// fewer than two usable points it is the bracket's middle.
func crossing(pts []ratePoint, limit, lo, hi float64) float64 {
	var near []ratePoint
	for _, p := range pts {
		if p.p99 > 0 && p.p99 >= limit/crossingBand && p.p99 <= limit*crossingBand {
			near = append(near, p)
		}
	}
	var slopes []float64
	for i := range near {
		for j := i + 1; j < len(near); j++ {
			if dx := near[j].rate - near[i].rate; dx != 0 {
				slopes = append(slopes, (math.Log(near[j].p99)-math.Log(near[i].p99))/dx)
			}
		}
	}
	b := median(slopes)
	if len(slopes) == 0 || b <= 0 {
		return (lo + hi) / 2
	}
	var icpts []float64
	for _, p := range near {
		icpts = append(icpts, math.Log(p.p99)-b*p.rate)
	}
	est := (math.Log(limit) - median(icpts)) / b
	return math.Min(math.Max(est, lo), hi)
}

// runClosed measures closedSessions fresh clusters at saturation, one
// session each.
func (r *runner) runClosed(o *outcome) error {
	w := r.w
	var sessions []window
	var slices []slice
	var walBytes int64
	written := 0
	for sess := 0; sess < closedSessions; sess++ {
		err := r.onCluster(o, w.CrashCheck, func(c *cluster) error {
			ph, s, err := r.phase(o, c, func(ph *phase) error {
				ph.traceEvery = closedTraceEvery
				ph.runClosed(r.closedGens(w.Callers, uint64(1000*(sess+1))), closedWarm, secs(r.seconds/closedSessions))
				return nil
			})
			if err != nil {
				return err
			}
			if sess == 0 {
				o.layer, o.layerWin = ph, s
			}
			sessions = append(sessions, s)
			slices = append(slices, ph.slices(sliceLen)...)
			walBytes += c.walBytes()
			written += s.putsAcked + w.Keys
			return nil
		})
		if err != nil {
			return err
		}
	}
	recordSubs(o, sessions)
	quietLatency(o, slices)
	o.e2e["peak_rps"] = medianOf(sessions, window.rps)
	// A closed loop at saturation runs at its capacity.
	o.e2e["capacity_rps"] = o.e2e["peak_rps"]
	o.e2e["cpu_us_per_req"] = cpuPerReq(sessions)
	o.e2e["disk_bytes_per_write"] = float64(walBytes) / float64(written)
	return nil
}

// quietLatency fills the RCT and write-latency metrics from the
// samples of the undisturbed slices (at least minQuietShare of them,
// the least disturbed first) and returns their send delay p99.
func quietLatency(o *outcome, slices []slice) float64 {
	sort.SliceStable(slices, func(i, j int) bool { return slices[i].stall < slices[j].stall })
	n := int(math.Ceil(minQuietShare * float64(len(slices))))
	for n < len(slices) && slices[n].stall < stallMs {
		n++
	}
	kept := slices[:n]
	var reads, writes, late [][]float64
	for _, sl := range kept {
		reads, writes, late = append(reads, sl.reads), append(writes, sl.writes), append(late, sl.lateness)
	}
	rs, ws, ls := mergeSorted(reads...), mergeSorted(writes...), mergeSorted(late...)
	o.e2e["rct_mean_ms"] = mean(rs)
	o.e2e["rct_p50_ms"] = quantile(rs, 0.5)
	o.e2e["rct_p99_ms"] = quantile(rs, 0.99)
	o.e2e["write_p50_ms"] = quantile(ws, 0.5)
	o.e2e["write_p99_ms"] = quantile(ws, 0.99)
	for _, m := range []string{"rct_mean_ms", "rct_p50_ms", "rct_p99_ms"} {
		o.samples[m] = len(rs)
	}
	o.samples["write_p50_ms"], o.samples["write_p99_ms"] = len(ws), len(ws)
	fmt.Printf("latency from %d of %d slices of %v (undisturbed: no send %.1f ms late): send delay p99 %.4f max %.4f ms (all slices: max %.4f ms)\n",
		len(kept), len(slices), sliceLen, stallMs, quantile(ls, 0.99), quantile(ls, 1), slices[len(slices)-1].stall)
	return quantile(ls, 0.99)
}

// recordSubs keeps each sub-window's (session's) own statistics for the
// run's record.
func recordSubs(o *outcome, subs []window) {
	for _, s := range subs {
		o.subs = append(o.subs, map[string]float64{
			"rct_mean_ms": mean(s.reads), "rct_p50_ms": quantile(s.reads, 0.5), "rct_p99_ms": quantile(s.reads, 0.99),
			"write_p50_ms": quantile(s.writes, 0.5), "write_p99_ms": quantile(s.writes, 0.99),
			"cpu_us_per_req": s.cpuPerReq, "rps": s.rps(),
		})
	}
}

// cpuPerReq is the process CPU of all the windows over all the
// requests they completed, so a garbage collection counts wherever it
// fell.
func cpuPerReq(subs []window) float64 {
	cpu, n := 0.0, 0
	for _, s := range subs {
		cpu += s.cpuPerReq * float64(s.completed)
		n += s.completed
	}
	return ratio(cpu, float64(n))
}

func medianOf(subs []window, f func(window) float64) float64 {
	xs := make([]float64, len(subs))
	for i, s := range subs {
		xs[i] = f(s)
	}
	return median(xs)
}

// mergeSorted concatenates sample sets into one sorted slice.
func mergeSorted(sets ...[]float64) []float64 {
	var out []float64
	for _, s := range sets {
		out = append(out, s...)
	}
	sort.Float64s(out)
	return out
}
