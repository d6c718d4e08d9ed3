package twod

import (
	"testing"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
	"twodcache/internal/obs"
)

// TestHotPathAllocFree pins the per-access allocation count of the
// word-kernel data path to zero: fetching a clean word (ReadUint64 and
// the concurrent TryReadUint64), writing one (WriteUint64), and the
// bare syndrome probe must not touch the heap. This is the contract the
// pcache hit path is built on.
func TestHotPathAllocFree(t *testing.T) {
	if raceEnabled {
		// sync.Pool deliberately drops items under the race detector,
		// so the pooled TryRead path allocates by design there. The
		// non-race tier-1 run enforces the zero-alloc contract.
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name  string
		horiz ecc.HorizontalCode
	}{
		{"EDC8", ecc.MustEDC(64, 8)},
		{"EDC16", ecc.MustEDC(64, 16)},
		{"SECDED", ecc.MustSECDED(64)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := MustArray(Config{
				Rows:           64,
				WordsPerRow:    8,
				Horizontal:     tc.horiz,
				VerticalGroups: 16,
			})
			// The zero-alloc contract must survive full instrumentation:
			// a registered registry and an installed (no-op) event sink.
			reg := obs.NewRegistry()
			a.RegisterMetrics(reg, "twod_"+tc.name)
			a.SetEventSink(obs.NopSink{}, "data")
			for w := 0; w < 8; w++ {
				a.WriteUint64(3, w, 0xA5A5_5A5A_DEAD_BEEF+uint64(w))
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, st := a.ReadUint64(3, 5); st != ReadClean {
					t.Fatalf("unexpected status %v", st)
				}
			}); got != 0 {
				t.Errorf("ReadUint64 (clean) allocates %.1f/op", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				if _, ok := a.TryReadUint64(3, 5); !ok {
					t.Fatal("TryReadUint64 missed a clean word")
				}
			}); got != 0 {
				t.Errorf("TryReadUint64 (clean) allocates %.1f/op", got)
			}
			var x uint64
			if got := testing.AllocsPerRun(200, func() {
				x++
				if st := a.WriteUint64(3, 5, x); st != ReadClean {
					t.Fatalf("unexpected status %v", st)
				}
			}); got != 0 {
				t.Errorf("WriteUint64 allocates %.1f/op", got)
			}
			if got := testing.AllocsPerRun(200, func() {
				if a.syndromeAt(3, 5) != 0 {
					t.Fatal("clean word has nonzero syndrome")
				}
			}); got != 0 {
				t.Errorf("syndromeAt allocates %.1f/op", got)
			}
		})
	}
}

// TestKernelAPIAgreesWithVectorAPI drives the uint64 fast paths and the
// legacy Vector paths against each other on the same array.
func TestKernelAPIAgreesWithVectorAPI(t *testing.T) {
	a := MustArray(Config{
		Rows:           32,
		WordsPerRow:    4,
		Horizontal:     ecc.MustSECDED(64),
		VerticalGroups: 8,
	})
	for r := 0; r < a.Rows(); r++ {
		for w := 0; w < 4; w++ {
			v := uint64(r)<<32 | uint64(w)<<8 | 0x17
			if r%2 == 0 {
				a.WriteUint64(r, w, v)
			} else {
				a.Write(r, w, bitvec.FromUint64(v, 64))
			}
		}
	}
	for r := 0; r < a.Rows(); r++ {
		for w := 0; w < 4; w++ {
			want := uint64(r)<<32 | uint64(w)<<8 | 0x17
			got, st := a.ReadUint64(r, w)
			if st != ReadClean || got != want {
				t.Fatalf("ReadUint64(%d,%d) = %#x, %v; want %#x clean", r, w, got, st, want)
			}
			vec, st := a.Read(r, w)
			if st != ReadClean || vec.Uint64() != want {
				t.Fatalf("Read(%d,%d) = %#x, %v; want %#x clean", r, w, vec.Uint64(), st, want)
			}
			tv, ok := a.TryReadUint64(r, w)
			if !ok || tv != want {
				t.Fatalf("TryReadUint64(%d,%d) = %#x, %v", r, w, tv, ok)
			}
		}
	}
	if rep := a.VerifyIntegrity(); !rep.Clean() {
		t.Fatalf("array inconsistent after mixed-API traffic: %+v", rep)
	}
}

// TestCleanRecoverAllocFree pins a clean Recover — the scrubber's
// common case, one per array per sweep — to zero allocations: the scan
// creates its fault maps only on the first faulty word, and the parity
// check folds each vertical group into array-owned scratch instead of
// materialising per-group mismatch vectors.
func TestCleanRecoverAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, tc := range []struct {
		name  string
		horiz ecc.HorizontalCode
	}{
		{"EDC8", ecc.MustEDC(64, 8)},
		{"EDC16", ecc.MustEDC(64, 16)},
		{"SECDED", ecc.MustSECDED(64)},
	} {
		for _, d := range []int{4, 8} {
			a := MustArray(Config{Rows: 32, WordsPerRow: d, Horizontal: tc.horiz, VerticalGroups: 8})
			for r := 0; r < 32; r++ {
				for w := 0; w < d; w++ {
					a.WriteUint64(r, w, uint64(r)*0x9E37_79B9_7F4A_7C15^uint64(w))
				}
			}
			if got := testing.AllocsPerRun(50, func() {
				if rep := a.Recover(); !rep.Success || rep.Mode != RecoveryNone {
					t.Fatalf("clean Recover: %+v", rep)
				}
			}); got != 0 {
				t.Errorf("%s d=%d: clean Recover allocates %.1f/op", tc.name, d, got)
			}
			if got := testing.AllocsPerRun(50, func() {
				if rep := a.VerifyIntegrity(); !rep.Clean() {
					t.Fatalf("clean VerifyIntegrity: %+v", rep)
				}
			}); got != 0 {
				t.Errorf("%s d=%d: clean VerifyIntegrity allocates %.1f/op", tc.name, d, got)
			}
		}
	}
}
