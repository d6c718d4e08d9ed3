package twodcache

// One benchmark per paper table/figure (the regeneration harness), plus
// micro-benchmarks for the core data-path operations. Run with:
//
//	go test -bench=. -benchmem
//
// The Fig. 5/6 benches run reduced cycle counts per iteration; use
// cmd/repro -full for paper-scale sampling.

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
	"twodcache/internal/experiments"
	"twodcache/internal/fault"
	"twodcache/internal/redundancy"
	"twodcache/internal/sim"
	"twodcache/internal/twod"
	"twodcache/internal/workload"
	"twodcache/internal/yield"
)

func benchOpts() experiments.Options {
	return experiments.Options{Samples: 1, Warmup: 10000, Measure: 10000, Trials: 2, Seed: 1}
}

// --- per-figure regeneration benches ------------------------------------

func BenchmarkFig1_CodeStorage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig1b().Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig1_CodeEnergy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig1c().Rows) != 5 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig2_Interleaving(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig2()) != 2 {
			b.Fatal("bad tables")
		}
	}
}

func BenchmarkFig3_Coverage(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig3(opt).Rows) != 3 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkTable1_Config(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if experiments.Table1().Render() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFig5_IPCLoss_Fat(b *testing.B) {
	opt := benchOpts()
	prof, _ := workload.ByName("OLTP")
	for i := 0; i < b.N; i++ {
		rep, err := sim.PerformanceLoss(sim.FatConfig(),
			sim.Protection{L1TwoD: true, L2TwoD: true, PortStealing: true},
			prof, opt.Samples, opt.Warmup, opt.Measure)
		if err != nil || rep.Samples == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5_IPCLoss_Lean(b *testing.B) {
	opt := benchOpts()
	prof, _ := workload.ByName("OLTP")
	for i := 0; i < b.N; i++ {
		rep, err := sim.PerformanceLoss(sim.LeanConfig(),
			sim.Protection{L1TwoD: true, L2TwoD: true, PortStealing: true},
			prof, opt.Samples, opt.Warmup, opt.Measure)
		if err != nil || rep.Samples == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6_AccessBreakdown(b *testing.B) {
	opt := benchOpts()
	prof, _ := workload.ByName("Web")
	for i := 0; i < b.N; i++ {
		_, l2, err := sim.AccessBreakdown(sim.LeanConfig(),
			sim.Protection{L1TwoD: true, L2TwoD: true, PortStealing: true},
			prof, 1, opt.Warmup, opt.Measure)
		if err != nil || l2[4] <= 0 {
			b.Fatal("no extra reads")
		}
	}
}

func BenchmarkFig7_Overheads(b *testing.B) {
	opt := benchOpts()
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig7(false, opt).Rows) == 0 ||
			len(experiments.Fig7(true, opt).Rows) == 0 {
			b.Fatal("bad tables")
		}
	}
}

func BenchmarkFig8_Yield(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig8a().Rows) != 11 {
			b.Fatal("bad table")
		}
	}
}

func BenchmarkFig8_Reliability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Fig8b().Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// --- core data-path micro-benches ----------------------------------------

func paperArray() *twod.Array {
	return twod.MustArray(twod.Config{
		Rows: 256, WordsPerRow: 4,
		Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 32,
	})
}

func BenchmarkArrayWrite(b *testing.B) {
	a := paperArray()
	d := WordFromUint64(0xDEADBEEF, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Write(i%256, i%4, d)
	}
}

func BenchmarkArrayReadClean(b *testing.B) {
	a := paperArray()
	d := WordFromUint64(0xDEADBEEF, 64)
	for r := 0; r < 256; r++ {
		for w := 0; w < 4; w++ {
			a.Write(r, w, d)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, st := a.Read(i%256, i%4); st != twod.ReadClean {
			b.Fatal("unexpected status")
		}
	}
}

// kernelArray is one pcache bank's array shape: 32 rows at interleave
// degree d (8 for data lines, 4 for the tag array's ways), EDC8
// horizontal, one vertical group per row.
func kernelArray(d int) *twod.Array {
	a := twod.MustArray(twod.Config{
		Rows: 32, WordsPerRow: d,
		Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 32,
	})
	for r := 0; r < 32; r++ {
		for w := 0; w < d; w++ {
			a.WriteUint64(r, w, uint64(r)<<32|uint64(w))
		}
	}
	return a
}

// BenchmarkArrayReadUint64 times one clean word read: gather the
// interleaved codeword, check its syndrome.
func BenchmarkArrayReadUint64(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			a := kernelArray(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, st := a.ReadUint64(i&31, i%d); st != twod.ReadClean {
					b.Fatal("unexpected status")
				}
			}
		})
	}
}

// BenchmarkArrayWriteUint64 times one word write: the read-before-write
// gather and check, encode, and the delta scatter into the data row and
// its vertical parity row.
func BenchmarkArrayWriteUint64(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			a := kernelArray(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.WriteUint64(i&31, i%d, uint64(i)*0x9E3779B97F4A7C15)
			}
		})
	}
}

// BenchmarkArrayRecoverClean times one clean Recover of a 32-row array:
// the scrubber's per-array cost when nothing is wrong.
func BenchmarkArrayRecoverClean(b *testing.B) {
	for _, d := range []int{4, 8} {
		b.Run(fmt.Sprintf("d=%d", d), func(b *testing.B) {
			a := kernelArray(d)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if rep := a.Recover(); !rep.Success {
					b.Fatal("clean recover failed")
				}
			}
		})
	}
}

func BenchmarkRecovery32x32(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		a := paperArray()
		for r := 0; r < 32; r++ {
			for c := 0; c < 32; c++ {
				if rng.Intn(2) == 1 {
					a.FlipBit(64+r, 64+c)
				}
			}
		}
		b.StartTimer()
		if rep := a.Recover(); !rep.Success {
			b.Fatal("recovery failed")
		}
	}
}

func BenchmarkEDC8Syndrome(b *testing.B) {
	e := ecc.MustEDC(64, 8)
	cw := e.Encode(WordFromUint64(0x123456789ABCDEF0, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e.SyndromeBits(cw) != 0 {
			b.Fatal("dirty syndrome")
		}
	}
}

func BenchmarkSECDEDDecode(b *testing.B) {
	s := ecc.MustSECDED(64)
	clean := s.Encode(WordFromUint64(0x123456789ABCDEF0, 64))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cw := clean.Clone()
		cw.Flip(i % 72)
		if res, _ := s.Decode(cw); res != ecc.Corrected {
			b.Fatal("not corrected")
		}
	}
}

func BenchmarkOECNEDDecode8Errors(b *testing.B) {
	c, err := ecc.NewOECNED(64)
	if err != nil {
		b.Fatal(err)
	}
	clean := c.Encode(WordFromUint64(0x123456789ABCDEF0, 64))
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cw := clean.Clone()
		for _, p := range rng.Perm(cw.Len())[:8] {
			cw.Flip(p)
		}
		b.StartTimer()
		if res, _ := c.Decode(cw); res != ecc.Corrected {
			b.Fatal("not corrected")
		}
	}
}

func BenchmarkSimCycle_Fat(b *testing.B) {
	prof, _ := workload.ByName("OLTP")
	s, err := sim.New(sim.FatConfig(),
		sim.Protection{L1TwoD: true, L2TwoD: true, PortStealing: true}, prof, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

func BenchmarkYieldCurve(b *testing.B) {
	g := yield.Geometry16MBL2()
	pol := yield.Policy{ECC: true, SpareRows: 32}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if yield.Yield(g, 2400, pol) < 0.5 {
			b.Fatal("unexpected yield")
		}
	}
}

func BenchmarkCoverageCampaign(b *testing.B) {
	s := fault.TwoDScheme{Cfg: twod.Config{
		Rows: 64, WordsPerRow: 2,
		Horizontal: ecc.MustEDC(64, 8), VerticalGroups: 16,
	}}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cells := fault.CoverageMatrix(s, rng, []int{8}, []int{8}, 1)
		if cells[0].Rate() != 1 {
			b.Fatal("coverage hole")
		}
	}
}

// --- substrate micro-benches (added subsystems) ---------------------------

func BenchmarkMarchCMinus64x576(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		arr := MustBenchFaultyArray(64, 576)
		b.StartTimer()
		if !RunMarch(arr, MarchCMinus()).Passed() {
			b.Fatal("clean array failed")
		}
	}
}

func BenchmarkSelfRepair(b *testing.B) {
	cfg := RepairConfig{Rows: 64, Cols: 576, SpareRows: 2, WordBits: 72, ECCSingleBit: true}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		arr := MustBenchFaultyArray(64, 576)
		_ = arr.Inject(CellFault{Row: 7, Col: 70, Kind: StuckAt1})
		_ = arr.Inject(CellFault{Row: 30, Col: 300, Kind: StuckAt0})
		b.StartTimer()
		out, err := SelfRepair(arr, cfg, MarchCMinus())
		if err != nil || !out.Repaired {
			b.Fatalf("repair failed: %v %+v", err, out)
		}
	}
}

func BenchmarkTraceRecordReplay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if _, err := RecordTrace(&buf, "OLTP", 0, 0, 1, 10000); err != nil {
			b.Fatal(err)
		}
		src, err := ReplayTrace(&buf)
		if err != nil {
			b.Fatal(err)
		}
		for j := 0; j < 10000; j++ {
			src.Next()
		}
	}
}

func BenchmarkRepairAllocation(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	cfg := RepairConfig{Rows: 512, Cols: 1152, SpareRows: 8, SpareCols: 8, WordBits: 72, ECCSingleBit: true}
	var faults []redundancy.Fault
	for i := 0; i < 60; i++ {
		faults = append(faults, redundancy.Fault{Row: rng.Intn(512), Col: rng.Intn(1152)})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AllocateRepairs(cfg, faults); err != nil {
			b.Fatal(err)
		}
	}
}

// MustBenchFaultyArray builds a defect-injectable array or fails the
// benchmark setup.
func MustBenchFaultyArray(rows, cols int) *FaultyArray {
	a, err := NewFaultyArray(rows, cols)
	if err != nil {
		panic(err)
	}
	return a
}

// BenchmarkPCacheParallelRead is the contention benchmark for the
// banked concurrent cache: all workers issue clean-hit reads, which
// proceed under per-bank shared locks, so throughput should scale with
// GOMAXPROCS instead of serialising on one global mutex. Compare
// -cpu 1,2,4,8 runs to see the scaling.
func BenchmarkPCacheParallelRead(b *testing.B) {
	backing := NewMemoryBacking(64)
	c, err := NewProtectedCache(ProtectedCacheConfig{
		Sets: 256, Ways: 4, LineBytes: 64, Banks: 8,
	}, backing)
	if err != nil {
		b.Fatal(err)
	}
	// Pre-fill exactly sets*ways lines so every read below is a hit.
	for l := uint64(0); l < 256*4; l++ {
		if err := c.Write(l*64, []byte{byte(l)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	var workerSeed atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		// Distinct seeds: identically seeded workers walk the same bank
		// sequence in lockstep, manufacturing worst-case lock collisions.
		rng := rand.New(rand.NewSource(workerSeed.Add(1)))
		for pb.Next() {
			l := uint64(rng.Intn(256 * 4))
			if _, err := c.Read(l*64, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkScrubberSweep measures one full background scrubbing pass
// (2D recovery over every bank's data and tag arrays) on a clean,
// fully populated cache — the steady-state cost the scrub interval
// must amortise.
func BenchmarkScrubberSweep(b *testing.B) {
	backing := NewMemoryBacking(64)
	eng, err := NewResilientCache(ProtectedCacheConfig{
		Sets: 256, Ways: 4, LineBytes: 64, Banks: 8,
	}, backing, ResilienceConfig{})
	if err != nil {
		b.Fatal(err)
	}
	for l := uint64(0); l < 256*4; l++ {
		if err := eng.Write(l*64, []byte{byte(l)}); err != nil {
			b.Fatal(err)
		}
	}
	s := eng.NewScrubber(ScrubberConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !s.Sweep() {
			b.Fatal("clean cache failed a sweep")
		}
	}
}

func BenchmarkProtectedCacheAccess(b *testing.B) {
	backing := NewMemoryBacking(64)
	c, err := NewProtectedCache(ProtectedCacheConfig{Sets: 64, Ways: 4, LineBytes: 64}, backing)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		addr := uint64(rng.Intn(1 << 15))
		if i%3 == 0 {
			if err := c.Write(addr, []byte{byte(i)}); err != nil {
				b.Fatal(err)
			}
		} else if _, err := c.Read(addr, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- word-kernel micro-benches ------------------------------------------
//
// One encode and one decode bench per representative code, all through
// the allocation-free kernel interface (EncodeInto/DecodeInPlace).
// results/BENCH_kernels.md tracks these against the pre-kernel Vector
// path.

func kernelBenchCodes(b *testing.B) []ecc.Code {
	b.Helper()
	dec, err := ecc.NewDECTED(64)
	if err != nil {
		b.Fatal(err)
	}
	return []ecc.Code{
		ecc.MustEDC(64, 8),
		ecc.MustEDC(64, 16),
		ecc.MustSECDED(64),
		dec,
	}
}

func BenchmarkKernelEncode(b *testing.B) {
	for _, c := range kernelBenchCodes(b) {
		b.Run(c.Name(), func(b *testing.B) {
			data := bitvec.MakeCodeword([]uint64{0x123456789ABCDEF0}, 64)
			cw := bitvec.MakeCodeword(make([]uint64, bitvec.WordsFor(ecc.CodewordBits(c))), ecc.CodewordBits(c))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.EncodeInto(cw, data)
			}
		})
	}
}

func BenchmarkKernelDecodeClean(b *testing.B) {
	for _, c := range kernelBenchCodes(b) {
		b.Run(c.Name(), func(b *testing.B) {
			data := bitvec.MakeCodeword([]uint64{0x123456789ABCDEF0}, 64)
			cw := bitvec.MakeCodeword(make([]uint64, bitvec.WordsFor(ecc.CodewordBits(c))), ecc.CodewordBits(c))
			c.EncodeInto(cw, data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res, _ := c.DecodeInPlace(cw); res != ecc.Clean {
					b.Fatal("clean codeword decoded dirty")
				}
			}
		})
	}
}

func BenchmarkKernelDecodeOneError(b *testing.B) {
	for _, c := range kernelBenchCodes(b) {
		if c.CorrectCapability() == 0 {
			continue // detection-only codes cannot run a correct loop
		}
		b.Run(c.Name(), func(b *testing.B) {
			n := ecc.CodewordBits(c)
			data := bitvec.MakeCodeword([]uint64{0x123456789ABCDEF0}, 64)
			cw := bitvec.MakeCodeword(make([]uint64, bitvec.WordsFor(n)), n)
			c.EncodeInto(cw, data)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cw.Flip(i % n)
				if res, _ := c.DecodeInPlace(cw); res != ecc.Corrected {
					b.Fatal("single error not corrected")
				}
			}
		})
	}
}

// BenchmarkPCacheParallelReadInto is BenchmarkPCacheParallelRead
// through the zero-allocation ReadInto entry point: the remaining
// ns/op is pure lock + kernel cost, with no garbage generated.
func BenchmarkPCacheParallelReadInto(b *testing.B) {
	backing := NewMemoryBacking(64)
	c, err := NewProtectedCache(ProtectedCacheConfig{
		Sets: 256, Ways: 4, LineBytes: 64, Banks: 8,
	}, backing)
	if err != nil {
		b.Fatal(err)
	}
	for l := uint64(0); l < 256*4; l++ {
		if err := c.Write(l*64, []byte{byte(l)}); err != nil {
			b.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		b.Fatal(err)
	}
	var workerSeed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(workerSeed.Add(1)))
		dst := make([]byte, 8)
		for pb.Next() {
			l := uint64(rng.Intn(256 * 4))
			if err := c.ReadInto(l*64, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- sharded store benches ----------------------------------------------
//
// BenchmarkShardedParallelRead sweeps the shard count with a FIXED
// per-shard geometry (scale-out: N shards = N× banks and capacity) and
// a fixed 256-line working set, so the curve isolates what sharding
// buys parallel readers: more independent lock domains and counters.
// Run with -cpu 1,2,4,8 — on a single core the curve is flat (there is
// no parallelism to unlock); results/BENCH_shards.md records both.
func BenchmarkShardedParallelRead(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			backing := NewMemoryBacking(64)
			s, err := NewShardedCache(ShardedCacheConfig{
				Shards: shards,
				Cache:  ProtectedCacheConfig{Sets: 64, Ways: 4, LineBytes: 64, Banks: 8},
			}, backing)
			if err != nil {
				b.Fatal(err)
			}
			const lines = 256 // striped across all shards, always resident
			for l := uint64(0); l < lines; l++ {
				if err := s.Write(l*64, []byte{byte(l)}); err != nil {
					b.Fatal(err)
				}
			}
			if err := s.Flush(); err != nil {
				b.Fatal(err)
			}
			var workerSeed atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(workerSeed.Add(1)))
				dst := make([]byte, 8)
				for pb.Next() {
					l := uint64(rng.Intn(lines))
					if err := s.ReadInto(l*64, dst); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// benchBatchStore builds the 4-shard store and the 64-op working set
// (8 spans over each of 8 resident lines) shared by the batch-vs-single
// pair below, so the two benches measure identical work.
func benchBatchStore(b *testing.B) (*ShardedCache, []BatchReadOp) {
	b.Helper()
	backing := NewMemoryBacking(64)
	s, err := NewShardedCache(ShardedCacheConfig{
		Shards: 4,
		Cache:  ProtectedCacheConfig{Sets: 64, Ways: 4, LineBytes: 64, Banks: 8},
	}, backing)
	if err != nil {
		b.Fatal(err)
	}
	for l := uint64(0); l < 8; l++ {
		if err := s.Write(l*64, bytes.Repeat([]byte{byte(l)}, 64)); err != nil {
			b.Fatal(err)
		}
	}
	ops := make([]BatchReadOp, 64)
	for i := range ops {
		line, off := uint64(i%8), uint64(i/8)*8
		ops[i] = BatchReadOp{Addr: line*64 + off, Dst: make([]byte, 8)}
	}
	return s, ops
}

// BenchmarkStoreReadBatch reads the 64-op set through ReadBatch: one
// bank-lock acquisition and one tag lookup per distinct line, spans
// served from a single line read-out.
func BenchmarkStoreReadBatch(b *testing.B) {
	s, ops := benchBatchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if failed := s.ReadBatch(ops); failed != 0 {
			b.Fatal("batch read failed")
		}
	}
}

// BenchmarkStoreSingleReads is the same 64 ops issued one at a time —
// the baseline ReadBatch must beat (64 lock acquisitions, 64 tag
// lookups, 64 line read-outs).
func BenchmarkStoreSingleReads(b *testing.B) {
	s, ops := benchBatchStore(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range ops {
			if err := s.ReadInto(ops[j].Addr, ops[j].Dst); err != nil {
				b.Fatal(err)
			}
		}
	}
}
