package main

import (
	"encoding/binary"
	"math/rand"
	"sync"
	"sync/atomic"

	"twodcache/internal/fault"
	"twodcache/internal/store"
	"twodcache/internal/twod"
)

// mix is splitmix64's finaliser: a cheap bijective hash used to derive
// seeds and line payloads.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// deriveSeed gives every stream (worker, fault plan) its own seed.
func deriveSeed(seed int64, stream uint64) int64 {
	return int64(mix(uint64(seed) ^ mix(stream)))
}

// fillLine writes the payload named by val into a 64-byte line.
func fillLine(buf []byte, val uint64) {
	for j := 0; j+8 <= len(buf); j += 8 {
		binary.LittleEndian.PutUint64(buf[j:], mix(val+uint64(j)))
	}
}

// initVal is the payload set-up writes into global line l.
func initVal(seed int64, l int) uint64 { return mix(uint64(seed)<<1 ^ uint64(l)) }

// op is one generated single-line operation on a worker-local line.
type op struct {
	write  bool
	silent bool   // write the line's current value back (a silent write)
	line   int    // worker-local line index
	val    uint64 // payload of a non-silent write
}

// opGen is one worker's deterministic op stream: the same seed and
// worker give the same ops, whatever the system under test does.
type opGen struct {
	rng        *rand.Rand
	lines      int
	writeFrac  float64
	silentFrac float64

	// seen/stamp pick distinct lines for a frame without allocating.
	seen  []uint32
	stamp uint32
}

func newOpGen(seed int64, worker, lines int, writeFrac, silentFrac float64) *opGen {
	return &opGen{
		rng:        rand.New(rand.NewSource(deriveSeed(seed, uint64(worker)+1))),
		lines:      lines,
		writeFrac:  writeFrac,
		silentFrac: silentFrac,
		seen:       make([]uint32, lines),
	}
}

func (g *opGen) next() op {
	o := op{line: g.rng.Intn(g.lines)}
	if g.rng.Float64() < g.writeFrac {
		o.write = true
		if g.rng.Float64() < g.silentFrac {
			o.silent = true
		} else {
			o.val = g.rng.Uint64()
		}
	}
	return o
}

// frame fills lines with len(lines) distinct worker-local lines (and
// vals with their payloads) and reports whether the frame writes.
// Distinct lines keep a write frame's outcome independent of the order
// the store applies its ops in.
func (g *opGen) frame(lines []int, vals []uint64) (write bool) {
	write = g.rng.Float64() < g.writeFrac
	g.stamp++
	for j := range lines {
		l := g.rng.Intn(g.lines)
		for g.seen[l] == g.stamp {
			l = g.rng.Intn(g.lines)
		}
		g.seen[l] = g.stamp
		lines[j] = l
		vals[j] = g.rng.Uint64()
	}
	return write
}

// injector strikes multi-bit fault events into a store on an op-count
// schedule: event k is the k-th draw from a seeded fault storm and lands
// when the workload's k*every-th op completes. Words that already carry
// an error are skipped, as in cachenetd's storm, so every event stays
// within what 2D recovery is specified to correct.
type injector struct {
	every uint64
	ops   atomic.Uint64

	mu       sync.Mutex
	st       *store.Sharded
	storm    *fault.Storm
	rng      *rand.Rand
	injected uint64 // events that flipped at least one bit
	flips    uint64
}

func newInjector(seed int64, every uint64, st *store.Sharded) *injector {
	return &injector{
		every: every,
		st:    st,
		storm: fault.NewStorm(fault.StormConfig{Seed: deriveSeed(seed, 0xfa17)}),
		rng:   rand.New(rand.NewSource(deriveSeed(seed, 0xfa18))),
	}
}

// tick counts one completed op and injects the next event when the
// schedule says so.
func (in *injector) tick() {
	if in.ops.Add(1)%in.every == 0 {
		in.inject()
	}
}

// faultEvent is one scheduled fault: which bank array it strikes and
// the upset cells.
type faultEvent struct {
	shard, bank int
	tags        bool
	flips       []fault.Flip
}

// draw takes the next event of the schedule. It depends only on the
// seed and the store's geometry, never on the store's contents.
func (in *injector) draw() faultEvent {
	banksPer := in.st.Shard(0).Cache().NumBanks()
	gi := in.rng.Intn(in.st.NumShards() * banksPer)
	ev := faultEvent{shard: gi / banksPer, bank: gi % banksPer, tags: in.rng.Intn(4) == 0}
	data, tags := in.st.Shard(ev.shard).Cache().BankArrays(ev.bank)
	a := data
	if ev.tags {
		a = tags
	}
	ev.flips = in.storm.NextEvent(a.Rows(), a.RowBits()).Flips
	return ev
}

// inject strikes the next event of the schedule and returns it.
func (in *injector) inject() faultEvent {
	in.mu.Lock()
	defer in.mu.Unlock()
	ev := in.draw()
	in.st.Shard(ev.shard).Cache().WithBankLock(ev.bank, func(data, tags *twod.Array) {
		a := data
		if ev.tags {
			a = tags
		}
		flipped := uint64(0)
		for _, fl := range ev.flips {
			w, _ := a.Layout().Locate(fl.Col)
			if _, ok := a.TryRead(fl.Row, w); ok {
				a.FlipBit(fl.Row, fl.Col)
				flipped++
			}
		}
		if flipped > 0 {
			in.injected++
			in.flips += flipped
		}
	})
	return ev
}

func (in *injector) counts() (events, flips uint64) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.injected, in.flips
}
