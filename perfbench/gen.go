package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Every input the benchmark sends is a pure function of the run seed:
// the request schedule, the keys each request touches, and every value
// byte. The key-popularity × value-size × placement profile is fixed per
// workload (key names and sizes depend on popularity rank only), so two
// seeds differ by sampling noise, not by which server happened to draw
// the hottest elephant.

// newRand returns a deterministic generator for one stream of a seed.
func newRand(seed, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream*0x9e3779b97f4a7c15+1))
}

// zipf samples popularity ranks 0..n-1 with P(r) ∝ (r+1)^-s (s = 0 is
// uniform) by binary search over the cumulative weights.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) zipf {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += math.Pow(float64(r+1), -s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return zipf{cdf: cdf}
}

func (z zipf) sample(rng *rand.Rand) int {
	r := sort.SearchFloat64s(z.cdf, rng.Float64())
	if r >= len(z.cdf) {
		r = len(z.cdf) - 1
	}
	return r
}

// sizeModel gives each popularity rank its value size: a bounded Pareto
// quantile (Alpha > 0) or the constant Lo.
type sizeModel struct {
	Lo, Hi int
	Alpha  float64
}

// size returns rank r's value size. Ranks walk the size distribution's
// quantiles along the golden-ratio sequence, which spreads sizes evenly
// over popularity without a random draw.
func (m sizeModel) size(r int) int {
	if m.Alpha <= 0 {
		return m.Lo
	}
	u := math.Mod(float64(r+1)*0.6180339887498949, 1)
	lo, hi := float64(m.Lo), float64(m.Hi)
	ratio := math.Pow(lo/hi, m.Alpha)
	x := lo / math.Pow(1-u*(1-ratio), 1/m.Alpha)
	return int(math.Min(math.Max(x, lo), hi))
}

// keyName is the read keyspace's key at popularity rank r.
func keyName(r int) string { return fmt.Sprintf("k%07d", r) }

// writeKeyName is the key at rank r of a workload's separate write
// keyspace (workloads whose reads must see only preloaded values).
func writeKeyName(r int) string { return fmt.Sprintf("w%07d", r) }

// valueHeader is the prefix every value carries: the write sequence
// (0 = preload) and the key rank, so a read names the write it saw.
const valueHeader = 12

// makeValue is the value written to key rank r by write seq: a header
// followed by bytes drawn from (seed, space, r, seq). space separates
// the read keyspace (0) from a separate write keyspace (1).
func makeValue(seed uint64, space, r int, seq uint64, size int) []byte {
	if size < valueHeader {
		size = valueHeader
	}
	v := make([]byte, size)
	binary.BigEndian.PutUint64(v, seq)
	binary.BigEndian.PutUint32(v[8:], uint32(r))
	x := seed ^ uint64(space)<<62 ^ uint64(r)<<32 ^ seq*0xbf58476d1ce4e5b9
	for i := valueHeader; i < size; i += 8 {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		z ^= z >> 31
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], z)
		copy(v[i:], b[:])
	}
	return v
}

// valueSeq reads the write sequence a value names (ok false when the
// value is too short to carry a header).
func valueSeq(v []byte) (seq uint64, rank int, ok bool) {
	if len(v) < valueHeader {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(v), int(binary.BigEndian.Uint32(v[8:])), true
}

// request is one generated operation: a multiget of distinct read keys
// or a single-key put.
type request struct {
	at    float64 // intended send offset in seconds (open loop)
	put   bool
	keys  []int  // multiget key ranks
	wkey  int    // put key rank
	seq   uint64 // put write sequence
	wsize int    // put value size
}

// reqGen draws requests for one stream of one workload.
type reqGen struct {
	w       *workload
	rng     *rand.Rand
	read    zipf
	write   zipf
	seqBase uint64
	n       uint64
	scratch map[int]bool
}

func newReqGen(w *workload, read, write zipf, seed, stream uint64) *reqGen {
	return &reqGen{
		w: w, rng: newRand(seed, stream), read: read, write: write,
		seqBase: stream << 32, scratch: make(map[int]bool, w.FanHi),
	}
}

// next draws the next request (its intended send time is the caller's).
func (g *reqGen) next() request {
	g.n++
	if g.rng.Float64() < g.w.WriteFrac {
		r := g.write.sample(g.rng)
		return request{put: true, wkey: r, seq: g.seqBase | g.n, wsize: g.w.WriteSize}
	}
	fan := g.w.FanLo + g.rng.IntN(g.w.FanHi-g.w.FanLo+1)
	clear(g.scratch)
	keys := make([]int, 0, fan)
	for len(keys) < fan {
		r := g.read.sample(g.rng)
		if !g.scratch[r] {
			g.scratch[r] = true
			keys = append(keys, r)
		}
	}
	return request{keys: keys}
}

// schedule draws an open-loop Poisson schedule at rate req/s covering
// [0, dur) seconds.
func (g *reqGen) schedule(rate, dur float64) []request {
	out := make([]request, 0, int(rate*dur*1.1)+16)
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		if t >= dur {
			return out
		}
		r := g.next()
		r.at = t
		out = append(out, r)
	}
}
