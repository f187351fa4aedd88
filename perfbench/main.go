// Command perfbench is daskv's benchmark: it boots an in-process
// loopback cluster for one named workload, drives it through a single
// kv.Client from a seed-determined request stream, checks every value
// that comes back, and prints each metric by name with its unit. The
// last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// the run is made twice, untraced and traced, and the metrics are the
// per-layer ones plus the tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		name      = flag.String("workload", "", "workload to run")
		seed      = flag.Uint64("seed", 1, "seed every input is drawn from")
		seconds   = flag.Float64("seconds", runSeconds, "measured seconds of one run")
		trace     = flag.Int("trace", 0, "1 = also make a traced run and report per-layer metrics")
		out       = flag.String("out", ".bench_build", "directory for scratch data, results and spans")
		writeSpec = flag.String("write-spec", "", "write BENCHMARK.json for the registered workloads and metrics to this path and exit")
	)
	flag.Parse()
	if *writeSpec != "" {
		b, err := specJSON()
		if err != nil {
			return err
		}
		return os.WriteFile(*writeSpec, b, 0o644)
	}
	w := findWorkload(*name)
	if w == nil {
		var names []string
		for _, w := range allWorkloads() {
			names = append(names, w.Name)
		}
		return fmt.Errorf("unknown workload %q (have %v)", *name, names)
	}
	if *seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	tag := fmt.Sprintf("%s-seed%d-trace%d", w.Name, *seed, *trace)
	resultsDir := filepath.Join(*out, "results")
	scratch := filepath.Join(*out, fmt.Sprintf("scratch-%s-%d", tag, os.Getpid()))
	for _, d := range []string{resultsDir, scratch} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return err
		}
	}
	defer os.RemoveAll(scratch)

	host, err := hostFacts(scratch)
	if err != nil {
		return err
	}
	for _, k := range sortedKeys(host) {
		fmt.Printf("host %s = %v\n", k, host[k])
	}
	in := newInputs(w, *seed)
	fmt.Printf("workload %s seed %d: %s\n", w.Name, *seed, w.Why)

	base := &runner{w: w, in: in, seconds: *seconds, dir: filepath.Join(scratch, "untraced")}
	o, err := base.run()
	if err != nil {
		return err
	}
	res := result{Correct: o.wrong == 0, Attempted: o.attempted, Failed: o.failed + o.wrong, Metrics: map[string]metricValue{}}
	problems := o.problems
	printMetrics("", endToEnd, o.e2e, o.samples)
	fmt.Printf("metric failed_frac = %v ratio (n=%d)\n", ratio(float64(res.Failed), float64(res.Attempted)), res.Attempted)

	detail := map[string]any{"host": host, "workload": w.Name, "seed": *seed, "end_to_end": o.e2e, "samples": o.samples,
		"sub_windows": o.subs, "invalid": o.invalid}
	if *trace == 0 {
		for _, m := range endToEnd {
			res.Metrics[m.Name] = metricValue{Value: o.e2e[m.Name], Unit: m.Unit}
		}
	} else {
		traced := &runner{w: w, in: in, seconds: *seconds, dir: filepath.Join(scratch, "traced"), traced: true}
		ot, err := traced.run()
		if err != nil {
			return err
		}
		layers, lp, err := layerMetrics(ot, filepath.Join(resultsDir, tag+".spans.jsonl"))
		if err != nil {
			return err
		}
		problems = append(append(problems, ot.problems...), lp...)
		res.Correct = res.Correct && ot.wrong == 0 && len(lp) == 0
		res.Attempted += ot.attempted
		res.Failed += ot.failed + ot.wrong
		for _, m := range endToEnd {
			layers[overheadName(m.Name)] = ot.e2e[m.Name] - o.e2e[m.Name]
		}
		printMetrics("traced ", endToEnd, ot.e2e, ot.samples)
		printMetrics("", allPerLayer(), layers, nil)
		for _, m := range allPerLayer() {
			res.Metrics[m.Name] = metricValue{Value: layers[m.Name], Unit: m.Unit}
		}
		detail["traced_end_to_end"] = ot.e2e
		detail["per_layer"] = layers
	}
	for _, p := range problems {
		fmt.Println("CHECK FAILED:", p)
	}
	for name, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	detail["result"] = res
	if b, err := json.MarshalIndent(detail, "", "  "); err == nil {
		_ = os.WriteFile(filepath.Join(resultsDir, tag+".json"), b, 0o644)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func printMetrics(prefix string, defs []metricDef, vals map[string]float64, samples map[string]int) {
	for _, m := range defs {
		line := fmt.Sprintf("%smetric %s = %v %s", prefix, m.Name, vals[m.Name], m.Unit)
		if n, ok := samples[m.Name]; ok {
			line += fmt.Sprintf(" (n=%d)", n)
		}
		fmt.Println(line)
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// hostFacts records what makes a number comparable across hosts: CPU
// count, scheduler width, Go version, how late a 200µs time.Sleep
// wakes, fsync latency in the directory the logs live in, and how much
// of a busy thread's time the host takes away in stalls.
func hostFacts(dir string) (map[string]string, error) {
	const spin = 300 * time.Millisecond
	var stalled time.Duration
	last := time.Now()
	for end := last.Add(spin); last.Before(end); {
		now := time.Now()
		if gap := now.Sub(last); gap > 100*time.Microsecond {
			stalled += gap
		}
		last = now
	}
	var over []float64
	for i := 0; i < 20; i++ {
		start := time.Now()
		time.Sleep(200 * time.Microsecond)
		over = append(over, ms(time.Since(start)-200*time.Microsecond))
	}
	f, err := os.CreateTemp(dir, "fsync-probe")
	if err != nil {
		return nil, err
	}
	defer os.Remove(f.Name())
	defer f.Close()
	var syncs []float64
	block := make([]byte, 4096)
	for i := 0; i < 30; i++ {
		if _, err := f.Write(block); err != nil {
			return nil, err
		}
		start := time.Now()
		if err := f.Sync(); err != nil {
			return nil, err
		}
		syncs = append(syncs, ms(time.Since(start)))
	}
	return map[string]string{
		"nproc":                fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs":           fmt.Sprint(runtime.GOMAXPROCS(0)),
		"go_version":           runtime.Version(),
		"sleep_200us_over_ms":  fmt.Sprintf("%.4f", median(over)),
		"wal_dir_fsync_p50_ms": fmt.Sprintf("%.4f", median(syncs)),
		"stall_ms_per_s":       fmt.Sprintf("%.2f", ms(stalled)/spin.Seconds()),
	}, nil
}
