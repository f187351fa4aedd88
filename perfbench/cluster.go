package main

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/daskv/daskv/internal/core"
	"github.com/daskv/daskv/internal/kv"
	"github.com/daskv/daskv/internal/sched"
	"github.com/daskv/daskv/internal/wal"
	"github.com/daskv/daskv/internal/wire"
)

// probes is the traced run's instrumentation: counters and timings
// taken around calls into each layer's public surface. An untraced run
// installs none of it.
type probes struct {
	clientWrites, clientBytes atomic.Int64
	serverWrites, serverReads atomic.Int64
	pushes, pushNanos         atomic.Int64
	pops, popNanos            atomic.Int64

	mu    sync.Mutex
	syncs []time.Duration // WAL fsync durations
}

// probeCounts is a snapshot of the probes' counters.
type probeCounts struct {
	clientWrites, clientBytes int64
	serverWrites, serverReads int64
	pushes, pushNanos         int64
	pops, popNanos            int64
}

func (p *probes) counts() probeCounts {
	return probeCounts{
		clientWrites: p.clientWrites.Load(), clientBytes: p.clientBytes.Load(),
		serverWrites: p.serverWrites.Load(), serverReads: p.serverReads.Load(),
		pushes: p.pushes.Load(), pushNanos: p.pushNanos.Load(),
		pops: p.pops.Load(), popNanos: p.popNanos.Load(),
	}
}

func (p *probes) noteSync(d time.Duration) {
	p.mu.Lock()
	p.syncs = append(p.syncs, d)
	p.mu.Unlock()
}

// takeSyncs returns and clears the recorded fsync durations.
func (p *probes) takeSyncs() []time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	s := p.syncs
	p.syncs = nil
	return s
}

// countConn counts the Write and Read calls (syscalls, one each on a
// TCP conn) and bytes written through one connection.
type countConn struct {
	net.Conn
	writes, reads, bytes *atomic.Int64
}

func (c *countConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	if c.bytes != nil {
		c.bytes.Add(int64(len(b)))
	}
	return c.Conn.Write(b)
}

func (c *countConn) Read(b []byte) (int, error) {
	if c.reads != nil {
		c.reads.Add(1)
	}
	return c.Conn.Read(b)
}

// timedPolicy forwards every call to a scheduling policy and times Push
// and Pop. It keeps the inner policy's BatchPolicy and DecisionReporter
// surfaces, which the server and the size-class queue type-assert.
type timedPolicy struct {
	inner interface {
		sched.BatchPolicy
		sched.DecisionReporter
	}
	p *probes
}

func (t *timedPolicy) Name() string                 { return t.inner.Name() }
func (t *timedPolicy) Len() int                     { return t.inner.Len() }
func (t *timedPolicy) BacklogDemand() time.Duration { return t.inner.BacklogDemand() }
func (t *timedPolicy) Decisions() sched.DecisionStats {
	return t.inner.Decisions()
}

func (t *timedPolicy) Push(op *sched.Op, now time.Duration) {
	start := time.Now()
	t.inner.Push(op, now)
	t.p.pushNanos.Add(int64(time.Since(start)))
	t.p.pushes.Add(1)
}

func (t *timedPolicy) PushBatch(ops []*sched.Op, now time.Duration) {
	start := time.Now()
	t.inner.PushBatch(ops, now)
	t.p.pushNanos.Add(int64(time.Since(start)))
	t.p.pushes.Add(int64(len(ops)))
}

func (t *timedPolicy) Pop(now time.Duration) *sched.Op {
	start := time.Now()
	op := t.inner.Pop(now)
	t.p.popNanos.Add(int64(time.Since(start)))
	t.p.pops.Add(1)
	return op
}

// timedFactory wraps every policy f builds; a policy without the batch
// and decision surfaces is returned unwrapped rather than hiding them.
func timedFactory(f sched.Factory, p *probes) sched.Factory {
	return func(seed uint64) sched.Policy {
		pol := f(seed)
		inner, ok := pol.(interface {
			sched.BatchPolicy
			sched.DecisionReporter
		})
		if !ok {
			return pol
		}
		return &timedPolicy{inner: inner, p: p}
	}
}

// walFile tracks how many of a segment's bytes an fsync has covered, so
// a crash can discard the rest the way power loss would (a killed
// process keeps the page cache, so the benchmark drops it itself), and
// times each fsync when probes are on.
type walFile struct {
	wal.File
	name    string
	p       *probes
	mu      sync.Mutex
	written int64
	synced  int64
}

func (f *walFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.mu.Lock()
	f.written += int64(n)
	f.mu.Unlock()
	return n, err
}

func (f *walFile) Sync() error {
	f.mu.Lock()
	covered := f.written
	f.mu.Unlock()
	start := time.Now()
	err := f.File.Sync()
	if f.p != nil {
		f.p.noteSync(time.Since(start))
	}
	if err == nil {
		f.mu.Lock()
		if covered > f.synced {
			f.synced = covered
		}
		f.mu.Unlock()
	}
	return err
}

// walFiles records every segment file one server's log creates.
type walFiles struct {
	mu    sync.Mutex
	files []*walFile
	// lieSync makes Sync report success without recording coverage, so
	// a crash drops acknowledged bytes too: the lost-write fault the
	// crash check must catch.
	lieSync bool
}

func (fs *walFiles) wrap(p *probes) func(wal.File) wal.File {
	return func(f wal.File) wal.File {
		name := ""
		if n, ok := f.(interface{ Name() string }); ok {
			name = n.Name()
		}
		wf := &walFile{File: f, name: name, p: p}
		fs.mu.Lock()
		fs.files = append(fs.files, wf)
		fs.mu.Unlock()
		return wf
	}
}

// dropUnsynced truncates every segment to the bytes its last fsync
// covered. Call it after the server has crashed.
func (fs *walFiles) dropUnsynced() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	for _, f := range fs.files {
		f.mu.Lock()
		keep := f.synced
		if fs.lieSync {
			keep = 0
		}
		f.mu.Unlock()
		if f.name == "" {
			return fmt.Errorf("wal segment without a file name; cannot drop unsynced bytes")
		}
		if err := os.Truncate(f.name, keep); err != nil {
			return fmt.Errorf("drop unsynced wal bytes: %w", err)
		}
	}
	return nil
}

// cluster is one booted loopback system under test: the workload's
// servers and the single client every request goes through.
type cluster struct {
	w       *workload
	in      *inputs
	dir     string
	p       *probes // nil on an untraced run
	servers []*kv.Server
	cfgs    []kv.ServerConfig
	wals    []*walFiles
	addrs   map[sched.ServerID]string
	client  *kv.Client
	setup   time.Duration
	epoch   time.Time // when traffic could start: history times count from here
	hist    history
}

// bootOptions varies a boot for the traced run and the checks' tests.
type bootOptions struct {
	probes     *probes
	traceDepth int  // client trace ring (negative = tracing off)
	trackWAL   bool // wrap WAL files so a crash can drop unsynced bytes
	lieSync    bool
}

// boot starts the workload's servers, dials the client and preloads the
// read keyspace; setup is the wall time of all three.
func boot(w *workload, in *inputs, dir string, o bootOptions) (*cluster, error) {
	start := time.Now()
	c := &cluster{w: w, in: in, dir: dir, p: o.probes, addrs: make(map[sched.ServerID]string)}
	factory := core.Factory(core.LiveOptions())
	if o.probes != nil {
		factory = timedFactory(factory, o.probes)
	}
	syncPolicy, err := wal.ParseSyncPolicy(w.WALSync)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.Servers; i++ {
		cfg := kv.ServerConfig{
			ID:            sched.ServerID(i),
			Addr:          "127.0.0.1:0",
			Policy:        factory,
			Workers:       w.Workers,
			PoolSplit:     w.PoolSplit,
			WALDir:        filepath.Join(dir, fmt.Sprintf("wal-%d", i)),
			WALSync:       syncPolicy,
			SweepInterval: -1,
		}
		if w.hasCost() {
			cfg.Cost = func(_ wire.OpType, _, valueLen int) time.Duration { return w.cost(valueLen) }
		}
		fs := &walFiles{lieSync: o.lieSync}
		if o.trackWAL || o.probes != nil {
			cfg.WALWrapFile = fs.wrap(o.probes)
		}
		if p := o.probes; p != nil {
			cfg.WrapConn = func(conn net.Conn) net.Conn {
				return &countConn{Conn: conn, writes: &p.serverWrites, reads: &p.serverReads}
			}
		}
		srv, err := kv.NewServer(cfg)
		if err != nil {
			c.close()
			return nil, fmt.Errorf("boot server %d: %w", i, err)
		}
		c.servers = append(c.servers, srv)
		c.cfgs = append(c.cfgs, cfg)
		c.wals = append(c.wals, fs)
		c.addrs[srv.ID()] = srv.Addr()
	}
	client, err := c.dial(o)
	if err != nil {
		c.close()
		return nil, err
	}
	c.client = client
	if err := c.preload(); err != nil {
		c.close()
		return nil, err
	}
	c.setup = time.Since(start)
	c.epoch, c.hist = time.Now(), history{}
	return c, nil
}

// dial builds the single client the harness drives.
func (c *cluster) dial(o bootOptions) (*kv.Client, error) {
	cfg := kv.ClientConfig{
		Servers:    c.addrs,
		Adaptive:   true,
		Seed:       c.in.seed,
		TraceDepth: o.traceDepth,
	}
	if c.w.hasCost() {
		w := c.w
		cfg.Demand = func(_ wire.OpType, _, valueLen int) time.Duration { return w.cost(valueLen) }
	}
	if p := o.probes; p != nil {
		cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			conn, err := net.DialTimeout("tcp", addr, timeout)
			if err != nil {
				return nil, err
			}
			return &countConn{Conn: conn, writes: &p.clientWrites, bytes: &p.clientBytes}, nil
		}
	}
	client, err := kv.NewClient(cfg)
	if err != nil {
		return nil, fmt.Errorf("dial client: %w", err)
	}
	return client, nil
}

// preloadChunk is how many keys ride one MSet; preloadStreams how many
// MSets are in flight at once.
const (
	preloadChunk   = 256
	preloadStreams = 4
)

// preload writes every read key's seed-determined value.
func (c *cluster) preload() error {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	chunks := (c.w.Keys + preloadChunk - 1) / preloadChunk
	errs := make(chan error, preloadStreams)
	for s := 0; s < preloadStreams; s++ {
		go func(s int) {
			for ch := s; ch < chunks; ch += preloadStreams {
				pairs := make(map[string][]byte, preloadChunk)
				for r := ch * preloadChunk; r < (ch+1)*preloadChunk && r < c.w.Keys; r++ {
					pairs[c.in.names[r]] = c.in.values[r]
				}
				if err := c.client.MSet(ctx, pairs); err != nil {
					errs <- fmt.Errorf("preload: %w", err)
					return
				}
			}
			errs <- nil
		}(s)
	}
	var first error
	for s := 0; s < preloadStreams; s++ {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// stats snapshots every server's statistics document.
func (c *cluster) stats() []wire.ServerStats {
	out := make([]wire.ServerStats, len(c.servers))
	for i, s := range c.servers {
		out[i] = s.StatsSnapshot()
	}
	return out
}

// walBytes sums the live log bytes across servers.
func (c *cluster) walBytes() int64 {
	var n int64
	for _, st := range c.stats() {
		if st.WAL != nil {
			n += st.WAL.Bytes
		}
	}
	return n
}

// crashRestart kills server i like kill -9, drops the log bytes no
// fsync covered, restarts it on the same WAL directory, and redials the
// client.
func (c *cluster) crashRestart(i int) error {
	c.servers[i].Crash()
	if err := c.wals[i].dropUnsynced(); err != nil {
		return err
	}
	cfg := c.cfgs[i]
	cfg.WALWrapFile = nil
	srv, err := kv.NewServer(cfg)
	if err != nil {
		return fmt.Errorf("restart server %d: %w", i, err)
	}
	c.servers[i] = srv
	c.addrs[srv.ID()] = srv.Addr()
	_ = c.client.Close()
	client, err := c.dial(bootOptions{traceDepth: -1})
	if err != nil {
		return err
	}
	c.client = client
	return nil
}

// close stops the client and every server, and removes the cluster's
// WAL directories.
func (c *cluster) close() {
	if c.client != nil {
		_ = c.client.Close()
	}
	for _, s := range c.servers {
		_ = s.Close()
	}
	_ = os.RemoveAll(c.dir)
}
