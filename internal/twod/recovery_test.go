package twod

import (
	"math/rand"
	"testing"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
)

// injectCluster flips a rectangle of bits starting at (row, col) of the
// given height and width (physical coordinates), returning the golden
// pre-error snapshot.
func injectCluster(a *Array, row, col, h, w int) *bitvec.Matrix {
	golden := a.SnapshotData()
	for r := row; r < row+h && r < a.Rows(); r++ {
		for c := col; c < col+w && c < a.RowBits(); c++ {
			a.FlipBit(r, c)
		}
	}
	return golden
}

func recoverAndCompare(t *testing.T, a *Array, golden *bitvec.Matrix, wantSuccess bool) RecoveryReport {
	t.Helper()
	rep := a.Recover()
	if rep.Success != wantSuccess {
		t.Fatalf("recovery success = %v (mode %v), want %v", rep.Success, rep.Mode, wantSuccess)
	}
	if wantSuccess {
		if diffs := a.SnapshotData().Diff(golden); len(diffs) != 0 {
			t.Fatalf("array differs from golden at %d positions after recovery (mode %v)", len(diffs), rep.Mode)
		}
		if !a.verticalConsistent() {
			t.Fatal("parity inconsistent after successful recovery")
		}
	}
	return rep
}

func TestRecoverFullRowFailure(t *testing.T) {
	a := small8kb(t)
	rng := rand.New(rand.NewSource(10))
	fillRandom(a, rng)
	golden := injectCluster(a, 77, 0, 1, a.RowBits()) // entire row flipped
	rep := recoverAndCompare(t, a, golden, true)
	if rep.Mode != RecoveryRow {
		t.Fatalf("mode = %v, want row reconstruction", rep.Mode)
	}
}

func TestRecover32x32Cluster(t *testing.T) {
	// The paper's headline claim: clustered errors up to 32x32 bits are
	// correctable with EDC8+Intv4 horizontal and EDC32 vertical.
	a := small8kb(t)
	rng := rand.New(rand.NewSource(11))
	fillRandom(a, rng)
	golden := injectCluster(a, 64, 100, 32, 32)
	recoverAndCompare(t, a, golden, true)
}

func TestRecoverRandomClusters(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 10; trial++ {
		a := small8kb(t)
		fillRandom(a, rng)
		h := 1 + rng.Intn(32)
		w := 1 + rng.Intn(32)
		row := rng.Intn(a.Rows() - h + 1)
		col := rng.Intn(a.RowBits() - w + 1)
		golden := injectCluster(a, row, col, h, w)
		recoverAndCompare(t, a, golden, true)
	}
}

func TestRecoverSparseClusterPattern(t *testing.T) {
	// Random subset of a 32x32 box (not a solid rectangle).
	a := small8kb(t)
	rng := rand.New(rand.NewSource(13))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	base, colBase := 10, 40
	for i := 0; i < 200; i++ {
		a.FlipBit(base+rng.Intn(32), colBase+rng.Intn(32))
	}
	// Flips may collide (cancel); recovery must still restore golden.
	recoverAndCompare(t, a, golden, true)
}

func TestRecoverColumnFailure(t *testing.T) {
	// A column failure spanning a full interleave period (32 rows, one
	// per vertical group) is repaired from row evidence: each group's
	// mismatch is exactly its sole faulty row's pattern. Under a
	// detection-only horizontal code this is the ONLY sound evidence —
	// see TestRecoverColumnFailureMultiHitGroupRefusedEDC for why
	// deeper columns cannot be repaired under EDC.
	a := small8kb(t)
	rng := rand.New(rand.NewSource(14))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	col := 123
	for r := 0; r < 32; r++ { // one row per group (group(r) = r mod 32)
		a.FlipBit(r, col)
	}
	rep := recoverAndCompare(t, a, golden, true)
	if rep.Mode != RecoveryRow {
		t.Fatalf("mode = %v, want row reconstruction", rep.Mode)
	}
}

func TestRecoverColumnFailureMultiHitGroupRefusedEDC(t *testing.T) {
	// Three hits of one column inside one vertical group: the group's
	// mismatch carries the column (odd count), and a GF(2) solve over
	// it would even be "unique" — but the evidence is indistinguishable
	// from one genuine hit plus a cancelled same-column pair hiding an
	// error at a DIFFERENT, syndrome-aliasing column (EDC8 syndromes
	// repeat mod 8). Both states satisfy every observable; repairing
	// would forge in the latter (the storm found exactly this shape —
	// internal/replay/testdata/hiddenpair-shrunk.trace). Under EDC the
	// multi-hit group must refuse, untouched; sole-hit groups repair.
	a := small8kb(t)
	rng := rand.New(rand.NewSource(14))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	col := 123
	for r := 0; r < 32; r++ { // one row per group (group(r) = r mod 32)
		a.FlipBit(r, col)
	}
	for _, r := range []int{32, 64} { // two more hits in group 0: 3 total
		a.FlipBit(r, col)
	}
	withErrors := a.SnapshotData()

	rep := a.Recover()
	if rep.Success {
		t.Fatal("recovery claimed success over a multi-hit group under EDC")
	}
	snap := a.SnapshotData()
	for _, r := range []int{0, 32, 64} {
		if !snap.Row(r).Equal(withErrors.Row(r)) {
			t.Fatalf("row %d modified by refused recovery", r)
		}
	}
	for r := 1; r < 32; r++ { // sole-hit groups repaired from row evidence
		if !snap.Row(r).Equal(golden.Row(r)) {
			t.Fatalf("sole-hit row %d not repaired", r)
		}
	}
}

func TestRecoverColumnFailureMultiHitGroupClusteredModel(t *testing.T) {
	// The exact scenario the strict discipline refuses above becomes
	// recoverable once the caller declares the paper's fault model:
	// with AssumeClusteredFaults the multi-hit column IS the fault, so
	// pooling suspect columns across groups and solving each faulty
	// word over the pool (Fig. 4(b) as published) is sound. Offline
	// coverage campaigns (fault.TwoDScheme, Fig. 3/4) run in this mode.
	a := MustArray(Config{
		Rows:                  256,
		WordsPerRow:           4,
		Horizontal:            ecc.MustEDC(64, 8),
		VerticalGroups:        32,
		AssumeClusteredFaults: true,
	})
	rng := rand.New(rand.NewSource(14))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	col := 123
	for r := 0; r < 32; r++ {
		a.FlipBit(r, col)
	}
	for _, r := range []int{32, 64} { // group 0 gets 3 hits
		a.FlipBit(r, col)
	}
	rep := recoverAndCompare(t, a, golden, true)
	if rep.Mode != RecoveryColumn {
		t.Fatalf("mode = %v, want column localisation", rep.Mode)
	}
}

func TestRecoverColumnFailureEvenHitGroupRefused(t *testing.T) {
	// Two hits of one column inside one vertical group cancel out of
	// the group's parity mismatch: the vertical code carries zero
	// evidence about either row. Under a detection-only horizontal
	// code the repair would be a pure guess (an 8-value syndrome check
	// aliases mod 8), so recovery must refuse — loudly, without
	// touching any row — rather than forge. (Borrowing the column from
	// another group's mismatch is exactly the forgery pinned by
	// internal/replay/testdata/cancelpair-shrunk.trace.)
	a := small8kb(t)
	rng := rand.New(rand.NewSource(15))
	fillRandom(a, rng)
	col := 123
	a.FlipBit(0, col)
	a.FlipBit(32, col) // same group (V=32), same column: cancels
	// An odd-hit group alongside, so the column IS visible elsewhere —
	// it must still not be borrowed into group 0.
	a.FlipBit(1, col)
	withErrors := a.SnapshotData()

	rep := a.Recover()
	if rep.Success {
		t.Fatal("recovery claimed success over a cancelled same-column pair under EDC")
	}
	// Row 1 (odd-hit group) may legitimately be repaired; rows 0 and 32
	// must not have been touched at all.
	snap := a.SnapshotData()
	for _, r := range []int{0, 32} {
		if !snap.Row(r).Equal(withErrors.Row(r)) {
			t.Fatalf("row %d modified by refused recovery", r)
		}
	}
}

func TestRecoverMultipleColumnFailures(t *testing.T) {
	// Several adjacent failing columns (e.g. a defective column-mux
	// region), each hitting some groups more than once. A correcting
	// horizontal code (SECDED) keeps the GF(2) column solve sound (its
	// column space has distance >= 4: no small aliasing dependencies),
	// with inline correction as the per-word fallback.
	a := MustArray(Config{
		Rows:           256,
		WordsPerRow:    4,
		Horizontal:     ecc.MustSECDED(64),
		VerticalGroups: 32,
	})
	rng := rand.New(rand.NewSource(15))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	for _, col := range []int{60, 61, 62, 63} {
		for r := 0; r < 32; r++ { // one row per group
			a.FlipBit(r, col)
		}
		a.FlipBit(32, col) // plus a third hit in group 0
		a.FlipBit(64, col)
	}
	rep := recoverAndCompare(t, a, golden, true)
	if rep.Mode != RecoveryColumn {
		t.Fatalf("mode = %v, want column localisation", rep.Mode)
	}
}

func TestRecoverFullStuckColumnSECDED(t *testing.T) {
	// Every cell in a column flipped: the flips have even parity in
	// every vertical group, so the vertical code sees nothing. A
	// correcting horizontal code (SECDED) localises each word's single
	// bit — the grey "ECC correct" box of Fig. 4(b).
	a := MustArray(Config{
		Rows:           256,
		WordsPerRow:    4,
		Horizontal:     ecc.MustSECDED(64),
		VerticalGroups: 32,
	})
	rng := rand.New(rand.NewSource(16))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	for r := 0; r < a.Rows(); r++ {
		a.FlipBit(r, 200)
	}
	rep := recoverAndCompare(t, a, golden, true)
	if rep.InlineFixes != a.Rows() {
		t.Fatalf("inline fixes = %d, want %d", rep.InlineFixes, a.Rows())
	}
}

func TestFullColumnInversionAmbiguousUnderEDC(t *testing.T) {
	// With a detection-only horizontal code, a full column inversion is
	// information-theoretically ambiguous (the difference between the
	// true fix and a same-group wrong fix is a codeword of the product
	// code). Recovery must fail loudly rather than guess. The event
	// requires even flip counts in every vertical group — probability
	// ~2^-V for real stuck-at faults over random data.
	a := small8kb(t)
	rng := rand.New(rand.NewSource(16))
	fillRandom(a, rng)
	for r := 0; r < a.Rows(); r++ {
		a.FlipBit(r, 200)
	}
	rep := a.Recover()
	if rep.Success {
		t.Fatal("ambiguous full-column inversion reported success under EDC")
	}
}

func TestUncorrectable33x33PlusCluster(t *testing.T) {
	// Errors spanning more than 32 rows AND more than n*d columns in a
	// dense block exceed 2D coverage: recovery must fail loudly, not
	// silently corrupt.
	a := small8kb(t)
	rng := rand.New(rand.NewSource(17))
	fillRandom(a, rng)
	// 40 rows x 40 columns solid cluster: >32 rows means vertical groups
	// see 2 faulty rows; 40 contiguous physical columns within a word
	// map to <= 10 bits per word, distinct mod 8? 10 bits spanning
	// groups: two bits share a parity group => ambiguous.
	injectCluster(a, 0, 0, 40, 40)
	rep := a.Recover()
	if rep.Success {
		t.Fatalf("40x40 cluster unexpectedly recovered (mode %v)", rep.Mode)
	}
	if a.Stats().Uncorrectable == 0 {
		t.Fatal("uncorrectable not counted")
	}
}

func TestRecoveryCleanArrayIsNoop(t *testing.T) {
	a := small8kb(t)
	rng := rand.New(rand.NewSource(18))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	rep := a.Recover()
	if rep.Mode != RecoveryNone || !rep.Success || rep.BitsFlipped != 0 {
		t.Fatalf("noop recovery: %+v", rep)
	}
	if len(a.SnapshotData().Diff(golden)) != 0 {
		t.Fatal("noop recovery modified data")
	}
}

func TestRecoveryRefreshesCorruptedParity(t *testing.T) {
	a := small8kb(t)
	rng := rand.New(rand.NewSource(19))
	fillRandom(a, rng)
	a.FlipParityBit(3, 50)
	a.FlipParityBit(7, 100)
	rep := a.Recover()
	if !rep.Success || !rep.ParityRefreshed {
		t.Fatalf("parity refresh: %+v", rep)
	}
	if !a.verticalConsistent() {
		t.Fatal("parity still inconsistent")
	}
}

func TestRecoverySECDEDHorizontal(t *testing.T) {
	// With SECDED horizontal code, a 32x32 cluster is still recovered
	// via the vertical dimension (SECDED flags multi-bit as detected).
	a := MustArray(Config{
		Rows:           256,
		WordsPerRow:    4,
		Horizontal:     ecc.MustSECDED(64),
		VerticalGroups: 32,
	})
	rng := rand.New(rand.NewSource(20))
	fillRandom(a, rng)
	golden := injectCluster(a, 30, 30, 32, 32)
	recoverAndCompare(t, a, golden, true)
}

func TestRecoverySECDEDColumnFailure(t *testing.T) {
	// Column failure under SECDED horizontal: each word sees a
	// single-bit error, correctable in-line during the scan... but the
	// recovery path still must produce a fully consistent array.
	a := MustArray(Config{
		Rows:           128,
		WordsPerRow:    2,
		Horizontal:     ecc.MustSECDED(64),
		VerticalGroups: 16,
	})
	rng := rand.New(rand.NewSource(21))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	for r := 0; r < a.Rows(); r++ {
		if rng.Intn(2) == 1 {
			a.FlipBit(r, 77)
		}
	}
	recoverAndCompare(t, a, golden, true)
}

func TestRecoveryReportCycles(t *testing.T) {
	a := small8kb(t)
	rep := a.Recover()
	// Scan reads at least rows*words once, plus the verify pass.
	if rep.ScanReads < a.Rows()*4 {
		t.Fatalf("scan reads = %d", rep.ScanReads)
	}
	if rep.CyclesEstimate() < rep.ScanReads {
		t.Fatal("cycle estimate below scan reads")
	}
}

func TestErrorInParityAndData(t *testing.T) {
	// Simultaneous data-row error and (different-group) parity-row
	// error: data must be restored; parity rebuilt.
	a := small8kb(t)
	rng := rand.New(rand.NewSource(22))
	fillRandom(a, rng)
	golden := a.SnapshotData()
	a.FlipBit(10, 10) // data error in group 10
	a.FlipParityBit(20, 99)
	rep := a.Recover()
	if !rep.Success {
		t.Fatalf("recovery failed: %+v", rep)
	}
	if len(a.SnapshotData().Diff(golden)) != 0 {
		t.Fatal("data not restored")
	}
	if !a.verticalConsistent() {
		t.Fatal("parity not rebuilt")
	}
}

func TestSolveGF2(t *testing.T) {
	// Identity-like system: three columns in distinct groups.
	cols := []uint64{0b001, 0b010, 0b100}
	sel, unique := solveGF2(cols, 0b101)
	if !unique || !sel[0] || sel[1] || !sel[2] {
		t.Fatalf("sel=%v unique=%v", sel, unique)
	}
	// Duplicate columns: ambiguous.
	if _, unique := solveGF2([]uint64{0b1, 0b1}, 0b1); unique {
		t.Fatal("ambiguous system reported unique")
	}
	// Inconsistent: syndrome bit with no covering column.
	if _, unique := solveGF2([]uint64{0b1}, 0b10); unique {
		t.Fatal("inconsistent system reported solvable")
	}
	// Empty selection for zero syndrome.
	sel, unique = solveGF2([]uint64{0b1, 0b10}, 0)
	if !unique || sel[0] || sel[1] {
		t.Fatalf("zero syndrome: sel=%v unique=%v", sel, unique)
	}
}

func TestConventionalArrayBaseline(t *testing.T) {
	// 4-way interleaved SECDED corrects any physical burst of <= 4 bits
	// along a row (one bit per word) but fails at 8.
	sec := ecc.MustSECDED(64)
	a := MustConventionalArray(64, 4, sec)
	rng := rand.New(rand.NewSource(23))
	for r := 0; r < 64; r++ {
		for w := 0; w < 4; w++ {
			a.Write(r, w, randVec(rng, 64))
		}
	}
	golden := a.SnapshotData()
	for c := 100; c < 104; c++ { // 4-bit burst
		a.FlipBit(10, c)
	}
	corrected, unc := a.Scrub()
	if corrected != 4 || unc != 0 {
		t.Fatalf("4-bit burst: corrected=%d uncorrectable=%d", corrected, unc)
	}
	if len(a.SnapshotData().Diff(golden)) != 0 {
		t.Fatal("scrub did not restore data")
	}
	// 8-bit burst: two bits land in each word -> SECDED detects only.
	for c := 0; c < 8; c++ {
		a.FlipBit(20, c)
	}
	_, unc = a.Scrub()
	if unc != 4 {
		t.Fatalf("8-bit burst: uncorrectable=%d, want 4", unc)
	}
}

func TestConventionalOECNEDWideBurst(t *testing.T) {
	// OECNED+Intv4 corrects 32-bit bursts (8 bits per word).
	oec, err := ecc.NewOECNED(64)
	if err != nil {
		t.Fatal(err)
	}
	a := MustConventionalArray(32, 4, oec)
	rng := rand.New(rand.NewSource(24))
	for r := 0; r < 32; r++ {
		for w := 0; w < 4; w++ {
			a.Write(r, w, randVec(rng, 64))
		}
	}
	golden := a.SnapshotData()
	for c := 50; c < 82; c++ { // 32-bit physical burst
		a.FlipBit(5, c)
	}
	corrected, unc := a.Scrub()
	if unc != 0 || corrected != 4 {
		t.Fatalf("32-bit burst on OECNED+Intv4: corrected=%d unc=%d", corrected, unc)
	}
	if len(a.SnapshotData().Diff(golden)) != 0 {
		t.Fatal("data not restored")
	}
}
