package main

import (
	"encoding/json"
	"time"
)

// workload is one traffic mix and cluster shape. Every workload carries
// a write stream and a write-ahead log, so every end-to-end metric is
// defined (and nonzero) on every workload; the write share is what
// differs.
type workload struct {
	Name string
	Why  string

	Servers   int
	Workers   int
	PoolSplit float64 // size-class split (0 = one pool)

	Keys    int       // read keyspace, preloaded
	Skew    float64   // Zipf exponent of read and write keys
	FanLo   int       // multiget fanout U(FanLo, FanHi)
	FanHi   int       //
	Sizes   sizeModel // preloaded value size by popularity rank
	CostMs  float64   // per-op service floor priced by ServerConfig.Cost (0 = no cost model)
	CostNsB float64   // per-byte service price

	WALSync   string
	WriteFrac float64 // share of requests that are single-key puts
	WriteSize int     // put value size
	// WriteKeys > 0 sends puts to a separate keyspace of that size so
	// reads only ever see preloaded values; 0 writes into the read
	// keyspace (reads then check against the write history).
	WriteKeys int

	// Open loop: Rate is the fixed offered rate (req/s, reads and
	// writes together) and P99Limit the capacity search's latency limit.
	Rate     float64
	P99Limit time.Duration
	// Closed loop: Callers goroutines each wait for a reply before the
	// next request (used when Rate is 0).
	Callers int

	CrashCheck bool
}

func (w *workload) openLoop() bool { return w.Rate > 0 }

func (w *workload) hasCost() bool { return w.CostMs > 0 }

// cost prices one op: a floor plus a per-byte term on the payload that
// moved.
func (w *workload) cost(valueLen int) time.Duration {
	return time.Duration(w.CostMs*float64(time.Millisecond) + w.CostNsB*float64(valueLen))
}

var workloads = []*workload{
	{
		Name:    "mget-heavytail",
		Why:     "paper regime: 1ms+16ns/B service on heavy-tailed values, 2x6 workers in size-class pools at 0.4 of capacity, so queue order (DAS, pools) decides the RCT tail",
		Servers: 2, Workers: 6, PoolSplit: 0.5,
		Keys: 4000, Skew: 0.9, FanLo: 1, FanHi: 8,
		Sizes:  sizeModel{Lo: 256, Hi: 64 << 10, Alpha: 0.7},
		CostMs: 1, CostNsB: 16,
		WALSync: "batch:2ms", WriteFrac: 0.4, WriteSize: 64, WriteKeys: 4000,
		Rate: 1000, P99Limit: 50 * time.Millisecond,
	},
	{
		Name:    "mget-cpu",
		Why:     "closed loop of 32 callers on 64B values with no service cost: the program's own CPU path (client, wire, admission, flushes, store) is the bottleneck",
		Servers: 2, Workers: 2,
		Keys: 100000, Skew: 0, FanLo: 1, FanHi: 16,
		Sizes:   sizeModel{Lo: 64},
		WALSync: "batch:2ms", WriteFrac: 1.0 / 16, WriteSize: 64, WriteKeys: 4096,
		Callers: 32,
	},
}

// unlisted are workloads the benchmark can run by name but that
// BENCHMARK.json leaves out. rw-durable's write_p99_ms spread 39% over
// ten runs on a 2-vCPU shared host, beyond any bound the benchmark may
// set: each put waits for its window's fsync, and that host's disk and
// stalls decide the tail. It still runs the crash check end to end.
var unlisted = []*workload{
	{
		Name:    "rw-durable",
		Why:     "50/50 puts and multigets on hot Zipf 0.99 keys with a 0.5ms service floor under coalesce:2ms: the write-ahead log's ack path shares the worker pool with reads",
		Servers: 2, Workers: 2,
		Keys: 4000, Skew: 0.99, FanLo: 1, FanHi: 4,
		Sizes:   sizeModel{Lo: 64},
		CostMs:  0.5,
		WALSync: "coalesce:2ms", WriteFrac: 0.5, WriteSize: 64,
		Rate: 400, P99Limit: 25 * time.Millisecond,
		CrashCheck: true,
	},
}

// allWorkloads lists every workload that runs by name.
func allWorkloads() []*workload { return append(append([]*workload(nil), workloads...), unlisted...) }

func findWorkload(name string) *workload {
	for _, w := range allWorkloads() {
		if w.Name == name {
			return w
		}
	}
	return nil
}

// metricDef is one metric the benchmark reports.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

// endToEnd are the metrics of an untraced run, with the share of the
// parent's median by which each may worsen. The bounds are wide because
// the host these were tuned on is noisy: see README.md.
var endToEnd = []metricDef{
	{"rct_mean_ms", "ms", "lower", 0.25},
	{"rct_p50_ms", "ms", "lower", 0.25},
	{"rct_p99_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"write_p99_ms", "ms", "lower", 0.25},
	{"capacity_rps", "req/s", "higher", 0.25},
	{"peak_rps", "req/s", "higher", 0.25},
	{"cpu_us_per_req", "us", "lower", 0.25},
	{"max_rss_mb", "MB", "lower", 0.2},
	{"setup_s", "s", "lower", 0.25},
	{"disk_bytes_per_write", "B", "lower", 0.05},
}

// perLayer are the metrics of a traced run. The higher/lower sense says
// which direction is an improvement where one exists.
var perLayer = []metricDef{
	{"load.lateness_p99_ms", "ms", "lower", 0},
	{"load.achieved_ratio", "ratio", "higher", 0},
	{"kv.client.writes_per_req", "count", "lower", 0},
	{"kv.client.bytes_per_req", "B", "lower", 0},
	{"kv.client.straggler_net_ms_p50", "ms", "lower", 0},
	{"wire.encode_ns_per_op", "ns", "lower", 0},
	{"wire.decode_ns_per_op", "ns", "lower", 0},
	{"wire.bytes_per_op", "B", "lower", 0},
	{"kv.server.writes_per_op", "count", "lower", 0},
	{"kv.server.reads_per_op", "count", "lower", 0},
	{"kv.server.flush_coalesce", "ratio", "higher", 0},
	{"kv.server.batch_width", "count", "higher", 0},
	{"kv.server.service_p50_ms", "ms", "lower", 0},
	{"sched.wait_p50_ms", "ms", "lower", 0},
	{"sched.wait_p99_ms", "ms", "lower", 0},
	{"sched.push_ns", "ns", "lower", 0},
	{"sched.pop_ns", "ns", "lower", 0},
	{"core.srpt_first_frac", "ratio", "higher", 0},
	{"core.lrpt_last_frac", "ratio", "lower", 0},
	{"core.promoted_frac", "ratio", "lower", 0},
	{"core.demand_err_p50_ms", "ms", "lower", 0},
	{"sizeclass.small_wait_p99_ms", "ms", "lower", 0},
	{"sizeclass.stolen_frac", "ratio", "higher", 0},
	{"kv.store.get_ns", "ns", "lower", 0},
	{"kv.store.put_ns", "ns", "lower", 0},
	{"wal.fsyncs_per_write", "count", "lower", 0},
	{"wal.fold_ratio", "ratio", "lower", 0},
	{"wal.sync_ms_p50", "ms", "lower", 0},
	{"wal.sync_ms_p99", "ms", "lower", 0},
	{"runtime.alloc_bytes_per_req", "B", "lower", 0},
	{"runtime.mallocs_per_req", "count", "lower", 0},
	{"runtime.gc_cycles_per_kreq", "count", "lower", 0},
	{"stage.lateness_ms", "ms", "lower", 0},
	{"stage.client_ms", "ms", "lower", 0},
	{"stage.net_ms", "ms", "lower", 0},
	{"stage.wait_ms", "ms", "lower", 0},
	{"stage.service_ms", "ms", "lower", 0},
	{"stage.sum_err_frac", "ratio", "lower", 0},
}

// overheadName is the per-layer metric holding traced minus untraced
// for end-to-end metric m.
func overheadName(m string) string { return "trace_overhead." + m }

func allPerLayer() []metricDef {
	out := append([]metricDef(nil), perLayer...)
	for _, m := range endToEnd {
		out = append(out, metricDef{Name: overheadName(m.Name), Unit: m.Unit, Better: m.Better})
	}
	return out
}

// specJSON renders BENCHMARK.json from the registry above, so the file
// and the code cannot drift apart.
func specJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type layer struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	}
	type e2e struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	spec := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []e2e    `json:"end_to_end"`
		PerLayer   []layer  `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, wl{w.Name, w.Why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, e2e{m.Name, m.Unit, m.Better, m.Bound})
	}
	for _, m := range allPerLayer() {
		spec.PerLayer = append(spec.PerLayer, layer{m.Name, m.Unit, m.Better})
	}
	b, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// runSeconds is the measured time of one run the spec asks for.
const runSeconds = 40
