package twod

import (
	"sort"
	"sync/atomic"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
)

// RecoveryMode identifies which branch of the Fig. 4(b) algorithm
// repaired the array.
type RecoveryMode int

const (
	// RecoveryNone: the scan found nothing to repair.
	RecoveryNone RecoveryMode = iota
	// RecoveryRow: each vertical parity group held at most one faulty
	// row, so every faulty row was reconstructed by XOR-ing the group.
	RecoveryRow
	// RecoveryColumn: multiple faulty rows shared a group (large-scale
	// column failure); faulty columns were located via the vertical
	// code and bits were solved for along the horizontal direction.
	RecoveryColumn
	// RecoveryFailed: the error footprint exceeded 2D coverage.
	RecoveryFailed
)

// String names the recovery mode.
func (m RecoveryMode) String() string {
	switch m {
	case RecoveryNone:
		return "none"
	case RecoveryRow:
		return "row-reconstruction"
	case RecoveryColumn:
		return "column-localisation"
	case RecoveryFailed:
		return "failed"
	default:
		return "unknown"
	}
}

// RecoveryReport summarises one invocation of the BIST-style recovery
// process.
type RecoveryReport struct {
	// Mode is the repair strategy that ran.
	Mode RecoveryMode
	// FaultyWords is the number of words whose horizontal code flagged
	// an error during the scan.
	FaultyWords int
	// BitsFlipped is the number of cell corrections applied.
	BitsFlipped int
	// InlineFixes counts words repaired by the horizontal ECC itself
	// during column-mode recovery (the grey "ECC correct" box of
	// Fig. 4(b)); nonzero only with a correcting horizontal code.
	InlineFixes int
	// ParityRefreshed reports whether the vertical parity rows were
	// rebuilt (they held errors, or row-mode changed intent).
	ParityRefreshed bool
	// ScanReads counts the word reads performed — the dominant term of
	// the recovery latency (comparable to a BIST march, §4).
	ScanReads int
	// Success reports whether the array checks fully clean afterwards.
	Success bool
}

// CyclesEstimate returns a rough latency in array-access cycles,
// dominated by the scan reads plus one write per corrected word.
func (r RecoveryReport) CyclesEstimate() int {
	return r.ScanReads + r.BitsFlipped
}

// recoverImpl is the 2D recovery process (Recover without event
// emission). It implements Fig. 4(b):
//
//  1. March over all rows, checking every word's horizontal code.
//  2. If every vertical group holds at most one faulty row, each faulty
//     row's error pattern equals the group's parity mismatch — XOR it in.
//  3. Otherwise (column-scale failure) locate suspect columns from the
//     vertical mismatch and solve each faulty word's syndrome over the
//     suspect set along the horizontal direction.
//  4. Re-verify; refresh parity rows if the data is clean but parity is
//     stale (errors struck the parity storage itself).
func (a *Array) recoverImpl() RecoveryReport {
	atomic.AddUint64(&a.stats.Recoveries, 1)
	rep := RecoveryReport{}

	faultyWords, faultyRows := a.scan(&rep)
	rep.FaultyWords = len(faultyWords)

	if len(faultyWords) == 0 {
		// Data clean. If parity rows disagree they took the hit; rebuild.
		rep.Mode = RecoveryNone
		if !a.verticalConsistent() {
			a.rebuildParity()
			rep.ParityRefreshed = true
		}
		rep.Success = true
		return rep
	}

	// Repair path: only here is the per-group mismatch materialised.
	mismatch := a.verticalMismatch()

	// Count faulty rows per vertical group.
	groupCount := make([]int, a.cfg.VerticalGroups)
	for r := range faultyRows {
		groupCount[a.group(r)]++
	}
	columnMode := false
	for _, c := range groupCount {
		if c > 1 {
			columnMode = true
			break
		}
	}

	// touched[g] records that this recovery applied repairs to data rows
	// of group g — used below to tell residue flushes apart from wrong
	// repairs when the parity disagrees after verification.
	touched := make([]bool, a.cfg.VerticalGroups)

	if !columnMode {
		rep.Mode = RecoveryRow
		// Repair rows in ascending order: the repairs commute (disjoint
		// rows), but a fixed order keeps replayed recoveries bit- and
		// event-identical to the recorded run (map order is randomised).
		rows := make([]int, 0, len(faultyRows))
		for r := range faultyRows {
			rows = append(rows, r)
		}
		sort.Ints(rows)
		for _, r := range rows {
			if a.residual[a.group(r)] {
				// The group's mismatch carries the residue of an
				// overwritten unrepairable word — an error pattern of
				// unknown shape. Even when the per-word syndrome check
				// below passes, residues can pair into a code-valid
				// pattern (EDC8 parity columns alias mod 8) riding
				// along with the row's real error: XOR-ing the
				// mismatch in would then forge a clean-checking wrong
				// word. Refuse; escalation handles the row as an
				// accounted loss.
				continue
			}
			m := mismatch[a.group(r)]
			if !a.rowDeltaPlausible(r, m) {
				// The mismatch carries bits the horizontal code cannot
				// attribute to this row's errors: the parity itself is
				// stale or struck. XOR-ing it in could forge a
				// valid-looking word — leave the row for verification
				// to flag rather than guess (Fig. 4(b) step 4).
				continue
			}
			rep.BitsFlipped += m.PopCount()
			a.data.XorRow(r, m)
			touched[a.group(r)] = true
		}
	} else {
		rep.Mode = RecoveryColumn
		if !a.recoverColumns(mismatch, faultyWords, groupCount, touched, &rep) {
			rep.Mode = RecoveryFailed
		}
	}

	// Verify: every word must now check clean.
	for r := 0; r < a.cfg.Rows; r++ {
		for w := 0; w < a.cfg.WordsPerRow; w++ {
			rep.ScanReads++
			if a.checkWord(r, w) != 0 {
				rep.Mode = RecoveryFailed
				rep.Success = false
				atomic.AddUint64(&a.stats.Uncorrectable, 1)
				return rep
			}
		}
	}
	// Data verified clean; restore the parity invariant if anything is
	// left inconsistent (e.g. parity rows themselves were struck).
	if !a.verticalConsistent() {
		if rep.InlineFixes > 0 {
			// Inline ECC corrections that leave the vertical parity
			// inconsistent indicate a miscorrection (>1 real error in
			// some word): refuse to mask it.
			rep.Mode = RecoveryFailed
			rep.Success = false
			atomic.AddUint64(&a.stats.Uncorrectable, 1)
			return rep
		}
		for g := 0; g < a.cfg.VerticalGroups; g++ {
			if a.residual[g] || !touched[g] || allZeroWords(a.foldGroup(g)) {
				continue
			}
			// This recovery wrote into group g, every word now checks
			// clean, yet the parity still disagrees and no residue
			// explains it: the repairs themselves must be wrong
			// (code-valid garbage). Rebuilding here would bake the
			// forgery into the parity — refuse instead.
			rep.Mode = RecoveryFailed
			rep.Success = false
			atomic.AddUint64(&a.stats.Uncorrectable, 1)
			return rep
		}
		a.rebuildParity()
		rep.ParityRefreshed = true
	}
	rep.Success = true
	atomic.AddUint64(&a.stats.RecoveredWords, uint64(rep.FaultyWords))
	return rep
}

// scan marches over the array checking every word's horizontal code.
// The maps are created on the first faulty word, so a clean pass — the
// scrubber's common case — allocates nothing (both stay nil).
func (a *Array) scan(rep *RecoveryReport) (faultyWords map[[2]int]uint64, faultyRows map[int]bool) {
	for r := 0; r < a.cfg.Rows; r++ {
		for w := 0; w < a.cfg.WordsPerRow; w++ {
			rep.ScanReads++
			if syn := a.checkWord(r, w); syn != 0 {
				if faultyWords == nil {
					faultyWords = make(map[[2]int]uint64)
					faultyRows = make(map[int]bool)
				}
				faultyWords[[2]int{r, w}] = syn
				faultyRows[r] = true
			}
		}
	}
	return faultyWords, faultyRows
}

// rowDeltaPlausible reports whether mismatch m is a credible error
// pattern for row r: every word the horizontal code flags must be
// explained by m's slice (matching syndrome), and every clean word's
// slice must be empty. A failure means the group's parity disagrees
// with the data for reasons beyond this row — applying m would write
// garbage into words that were never faulty. Code-valid garbage
// confined to an already-faulty word is indistinguishable from a real
// error pattern and remains beyond coverage, as in the paper.
func (a *Array) rowDeltaPlausible(r int, m *bitvec.Vector) bool {
	nb := a.layout.CodewordBits
	s := a.scr.cw
	for w := 0; w < a.cfg.WordsPerRow; w++ {
		// Gather m's interleaved slice for word slot w into scratch.
		a.il.gather(s, m.Words(), w)
		syn := a.syndromeAt(r, w)
		if syn == 0 {
			if !allZeroWords(s) {
				return false
			}
			continue
		}
		if a.cfg.Horizontal.SyndromeWords(bitvec.MakeCodeword(s, nb)) != syn {
			return false
		}
	}
	return true
}

// verticalMismatch returns, per group, the XOR of the stored parity row
// with the parity recomputed from the data rows. With at most one
// faulty row in the group this equals that row's exact error pattern.
// Only the repair path needs these owned copies; checks use foldGroup.
func (a *Array) verticalMismatch() []*bitvec.Vector {
	out := make([]*bitvec.Vector, a.cfg.VerticalGroups)
	for g := range out {
		m := bitvec.New(a.vpar.Cols())
		copy(m.Words(), a.foldGroup(g))
		out[g] = m
	}
	return out
}

// foldGroup XORs group g's stored parity row with every data row of the
// group into the array-owned row scratch and returns it: the group's
// mismatch, all zero iff its parity is consistent. It allocates
// nothing; the result is overwritten by the next call.
func (a *Array) foldGroup(g int) []uint64 {
	f := a.scr.fold
	copy(f, a.vpar.RowWords(g))
	for r := g; r < a.cfg.Rows; r += a.cfg.VerticalGroups {
		for i, x := range a.data.RowWords(r) {
			f[i] ^= x
		}
	}
	return f
}

// verticalConsistent reports whether every group's stored parity row
// equals the XOR of its data rows.
func (a *Array) verticalConsistent() bool {
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		if !allZeroWords(a.foldGroup(g)) {
			return false
		}
	}
	return true
}

// rebuildParity recomputes all vertical parity rows from the data.
// Every residue is gone afterwards, so the taint flags clear with it;
// callers are responsible for only rebuilding over trustworthy data.
func (a *Array) rebuildParity() {
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		a.rebuildGroup(g)
		a.residual[g] = false
	}
}

// rebuildGroup recomputes group g's parity row from its data rows.
func (a *Array) rebuildGroup(g int) {
	p := a.vpar.Row(g)
	p.Zero()
	for r := g; r < a.cfg.Rows; r += a.cfg.VerticalGroups {
		p.Xor(a.data.Row(r))
	}
}

// recoverColumns handles large-scale column failures — the branch taken
// when some vertical group holds more than one faulty row.
//
// Evidence discipline: a group's parity mismatch is the XOR of its
// rows' error patterns. With exactly ONE faulty row in the group, the
// mismatch IS that row's pattern — the same hard evidence row mode
// uses, so such rows are repaired here with the full row-mode
// discipline (taint refusal + plausibility). With SEVERAL faulty rows
// the attribution of mismatch columns to rows is underdetermined, and
// under a detection-only horizontal code the per-word syndrome adds
// only an 8-value check that aliases mod 8. Worse, two same-column
// flips inside the group cancel out of the mismatch entirely, so the
// visible columns need not even contain the true error: a "unique"
// GF(2) solution over them can be plain wrong, and the forged state is
// globally self-consistent — clean words, zero mismatch, consistent
// multiplicities — hence undetectable after the fact. The true state
// and the forgery satisfy every observable, so no solver confined to
// the visible evidence is sound. Shrunk storm traces pinning four
// escalating variants of this forgery (cross-group borrowing,
// corroborated borrowing, and same-group aliasing) live in
// internal/replay/testdata/{cancelpair,crosscluster,hiddenpair}-shrunk.trace.
//
// Therefore: under EDC, words in multi-faulty-row groups refuse and
// escalate to an accounted loss (wipe + reload). With a correcting
// horizontal code the per-word evidence is strong enough to keep the
// GF(2) solve (its column space has distance >= 4, so small aliasing
// dependencies do not exist), with the code's own inline correction as
// the fallback (Fig. 4(b)'s grey box).
//
// Config.AssumeClusteredFaults trades this discipline for the paper's
// declared fault model: offline coverage campaigns measuring Fig. 3/4
// claims pool suspect columns across all groups and solve every faulty
// word over the pool, which is sound when errors really are contiguous
// column clusters (recoverColumnsClustered).
func (a *Array) recoverColumns(mismatch []*bitvec.Vector, faultyWords map[[2]int]uint64, groupCount []int, touched []bool, rep *RecoveryReport) bool {
	if a.cfg.AssumeClusteredFaults {
		return a.recoverColumnsClustered(mismatch, faultyWords, touched, rep)
	}
	h := a.cfg.Horizontal
	canInline := h.CorrectCapability() > 0
	ok := true

	// Pass 1 — rows that are the sole faulty row of their group: repair
	// with row-mode evidence. Ascending order for deterministic replay.
	var soleRows []int
	seenRow := make(map[int]bool)
	for rw := range faultyWords {
		r := rw[0]
		if seenRow[r] {
			continue
		}
		seenRow[r] = true
		if groupCount[a.group(r)] == 1 {
			soleRows = append(soleRows, r)
		}
	}
	sort.Ints(soleRows)
	repairedRow := make(map[int]bool)
	for _, r := range soleRows {
		g := a.group(r)
		if a.residual[g] {
			continue // tainted: fall through to pass 2's fallback
		}
		m := mismatch[g]
		if !a.rowDeltaPlausible(r, m) {
			continue
		}
		rep.BitsFlipped += m.PopCount()
		a.data.XorRow(r, m)
		touched[g] = true
		repairedRow[r] = true
	}

	// Pass 2 — words in multi-faulty-row groups, plus sole rows refused
	// above. Row-major order: per-word repairs touch disjoint cells, so
	// the order is for deterministic replay, not correctness.
	order := make([][2]int, 0, len(faultyWords))
	for rw := range faultyWords {
		order = append(order, rw)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	for _, rw := range order {
		r, w := rw[0], rw[1]
		if repairedRow[r] {
			continue
		}
		syn := faultyWords[rw]
		g := a.group(r)
		if !canInline || a.residual[g] {
			// Detection-only code (no sound evidence for this word), or
			// the group's mismatch carries an overwritten word's residue
			// (its columns are not trustworthy). Escalation handles the
			// word as an accounted loss; the inline ECC may still fix it
			// in the tainted-group case.
			if !a.tryInline(r, w, canInline, rep) {
				ok = false
			}
			continue
		}
		var cand []int
		for _, c := range mismatch[g].Ones() {
			if ws, b := a.layout.Locate(c); ws == w {
				cand = append(cand, b)
			}
		}
		cols := make([]uint64, len(cand))
		for i, b := range cand {
			cols[i] = h.ParityColumn(b)
		}
		sel, unique := solveGF2(cols, syn)
		if unique {
			for i, use := range sel {
				if use {
					a.data.Flip(r, a.layout.PhysColumn(w, cand[i]))
					rep.BitsFlipped++
					touched[g] = true
				}
			}
			continue
		}
		if !a.tryInline(r, w, canInline, rep) {
			ok = false
		}
	}
	return ok
}

// recoverColumnsClustered is the fault-model-trusting column mode
// enabled by Config.AssumeClusteredFaults: suspect columns pooled
// across every untainted group, each faulty word solved over the pool
// (Fig. 4(b) as published). Sound only under the declared clustered
// fault model — see recoverColumns for why arbitrary patterns can
// forge it.
func (a *Array) recoverColumnsClustered(mismatch []*bitvec.Vector, faultyWords map[[2]int]uint64, touched []bool, rep *RecoveryReport) bool {
	suspect := bitvec.New(a.layout.RowBits())
	for g, m := range mismatch {
		if a.residual[g] {
			continue // residue columns are not fault evidence
		}
		suspect.Or(m)
	}
	// Group suspect columns by word slot.
	byWord := make(map[int][]int) // word slot -> codeword bit indices
	for _, c := range suspect.Ones() {
		w, b := a.layout.Locate(c)
		byWord[w] = append(byWord[w], b)
	}
	h := a.cfg.Horizontal
	canInline := h.CorrectCapability() > 0
	ok := true
	// Row-major order: repairs touch disjoint cells, so the order is
	// for deterministic replay, not correctness.
	order := make([][2]int, 0, len(faultyWords))
	for rw := range faultyWords {
		order = append(order, rw)
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i][0] != order[j][0] {
			return order[i][0] < order[j][0]
		}
		return order[i][1] < order[j][1]
	})
	for _, rw := range order {
		r, w := rw[0], rw[1]
		syn := faultyWords[rw]
		cand := byWord[w]
		cols := make([]uint64, len(cand))
		for i, b := range cand {
			cols[i] = h.ParityColumn(b)
		}
		sel, unique := solveGF2(cols, syn)
		if unique {
			for i, use := range sel {
				if use {
					a.data.Flip(r, a.layout.PhysColumn(w, cand[i]))
					rep.BitsFlipped++
					touched[a.group(r)] = true
				}
			}
			continue
		}
		if !a.tryInline(r, w, canInline, rep) {
			ok = false
		}
	}
	return ok
}

// tryInline falls back to the horizontal ECC's own correction for one
// faulty word — the grey "ECC correct" box of Fig. 4(b). This handles
// column failures invisible to the vertical parity (even flip counts
// in every group), which a correcting code localises per word.
func (a *Array) tryInline(r, w int, canInline bool, rep *RecoveryReport) bool {
	if !canInline {
		return false
	}
	a.extractInto(a.scr.cw, r, w)
	cw := bitvec.MakeCodeword(a.scr.cw, a.layout.CodewordBits)
	res, n := a.cfg.Horizontal.DecodeInPlace(cw)
	if res != ecc.Corrected {
		return false
	}
	a.storeRawWords(r, w, a.scr.cw)
	rep.InlineFixes++
	rep.BitsFlipped += n
	return true
}

// solveGF2 finds x with sum_{i: x_i} cols[i] == target over GF(2).
// It reports the solution and whether it is unique. Duplicate or
// dependent columns make the system ambiguous (unique=false).
func solveGF2(cols []uint64, target uint64) (sel []bool, unique bool) {
	n := len(cols)
	sel = make([]bool, n)
	// Build augmented rows: each column becomes a variable; eliminate
	// to reduced row-echelon over the syndrome-bit equations.
	type eq struct {
		coef uint64 // bit i set => variable i participates
		rhs  bool
	}
	// There are up to 64 syndrome bits; build one equation per bit.
	var eqs []eq
	for bit := 0; bit < 64; bit++ {
		var coef uint64
		for i, c := range cols {
			if c&(1<<uint(bit)) != 0 {
				coef |= 1 << uint(i)
			}
		}
		rhs := target&(1<<uint(bit)) != 0
		if coef == 0 {
			if rhs {
				return nil, false // inconsistent
			}
			continue
		}
		eqs = append(eqs, eq{coef, rhs})
	}
	if n > 64 {
		return nil, false // solver supports up to 64 suspect bits/word
	}
	// Gaussian elimination on variables.
	pivotOf := make([]int, 0, n)
	row := 0
	for v := 0; v < n && row < len(eqs); v++ {
		// Find a row at/after 'row' with variable v.
		p := -1
		for i := row; i < len(eqs); i++ {
			if eqs[i].coef&(1<<uint(v)) != 0 {
				p = i
				break
			}
		}
		if p < 0 {
			continue
		}
		eqs[row], eqs[p] = eqs[p], eqs[row]
		for i := range eqs {
			if i != row && eqs[i].coef&(1<<uint(v)) != 0 {
				eqs[i].coef ^= eqs[row].coef
				eqs[i].rhs = eqs[i].rhs != eqs[row].rhs
			}
		}
		pivotOf = append(pivotOf, v)
		row++
	}
	// Unique iff every variable got a pivot.
	if len(pivotOf) < n {
		return nil, false
	}
	// Back-substitute (matrix is diagonal on pivots now).
	for i, v := range pivotOf {
		if eqs[i].rhs {
			sel[v] = true
		}
	}
	// Consistency: remaining equations must be 0 = 0.
	for i := len(pivotOf); i < len(eqs); i++ {
		if eqs[i].coef == 0 && eqs[i].rhs {
			return nil, false
		}
	}
	return sel, true
}

// FlushResidualParity rebuilds the vertical parity row of every group
// whose data rows all check clean horizontally but whose stored parity
// disagrees with the data. Such residues are the deliberate leftovers
// of the raw-delta overwrite discipline (writeStaged's uncorrectable
// branch, ForceWrite): when an unrepairable word is overwritten, its
// old error pattern stays in its group's mismatch instead of a full
// parity rebuild erasing every other faulty row's recovery
// information. A lone residue has a nonzero horizontal syndrome and is
// refused by rowDeltaPlausible, but residues left to accumulate can
// combine into a code-valid pattern that a later row-mode repair would
// replay into a genuinely faulty row — which is why residue-carrying
// groups are tainted (row-mode recovery refuses them outright) and why
// wipe paths call this once the damage they were handling is cleared:
// flushing retires the residue and lifts the taint, restoring full
// row-mode recoverability for the group. Groups still containing
// detected faulty words keep their mismatch (and taint) untouched.
// Returns the number of groups flushed. Caller must hold the array's
// external exclusive lock, as for Recover.
func (a *Array) FlushResidualParity() int {
	flushed := 0
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		clean := true
		for r := g; r < a.cfg.Rows && clean; r += a.cfg.VerticalGroups {
			for w := 0; w < a.cfg.WordsPerRow; w++ {
				if a.syndromeAt(r, w) != 0 {
					clean = false
					break
				}
			}
		}
		if !clean {
			continue
		}
		// Every word of the group checks clean: any residue is now
		// retired (rebuilt away below) and the taint lifts.
		a.residual[g] = false
		if allZeroWords(a.foldGroup(g)) {
			continue
		}
		a.rebuildGroup(g)
		flushed++
	}
	return flushed
}

func allZeroWords(ws []uint64) bool {
	for _, x := range ws {
		if x != 0 {
			return false
		}
	}
	return true
}

// IntegrityReport is the result of a non-mutating consistency audit.
type IntegrityReport struct {
	// FaultyWords counts words whose horizontal code flags an error.
	FaultyWords int
	// ParityMismatches counts vertical groups whose stored parity row
	// disagrees with the data.
	ParityMismatches int
}

// Clean reports whether the audit found nothing.
func (r IntegrityReport) Clean() bool {
	return r.FaultyWords == 0 && r.ParityMismatches == 0
}

// VerifyIntegrity audits the array without modifying anything: every
// word's horizontal code is checked and every vertical parity row is
// recomputed and compared. Diagnostics and tests use it to distinguish
// "clean", "recoverable", and "silently inconsistent" states.
func (a *Array) VerifyIntegrity() IntegrityReport {
	rep := IntegrityReport{}
	for r := 0; r < a.cfg.Rows; r++ {
		for w := 0; w < a.cfg.WordsPerRow; w++ {
			if a.checkWord(r, w) != 0 {
				rep.FaultyWords++
			}
		}
	}
	for g := 0; g < a.cfg.VerticalGroups; g++ {
		if !allZeroWords(a.foldGroup(g)) {
			rep.ParityMismatches++
		}
	}
	return rep
}
