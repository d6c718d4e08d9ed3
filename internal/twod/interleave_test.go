package twod

import (
	"math/rand"
	"testing"

	"twodcache/internal/bitvec"
	"twodcache/internal/ecc"
)

// The interleave kernel is checked against a reference that knows
// nothing but Layout.PhysColumn: gather reads codeword bit b of slot w
// from column PhysColumn(w, b), scatter flips exactly those columns.

func refGather(l Layout, row []uint64, w int) []uint64 {
	out := make([]uint64, bitvec.WordsFor(l.CodewordBits))
	for b := 0; b < l.CodewordBits; b++ {
		c := l.PhysColumn(w, b)
		out[b>>6] |= (row[c>>6] >> uint(c&63) & 1) << uint(b&63)
	}
	return out
}

func refScatter(l Layout, row, par []uint64, w int, delta []uint64) {
	for b := 0; b < l.CodewordBits; b++ {
		if delta[b>>6]>>uint(b&63)&1 == 0 {
			continue
		}
		c := l.PhysColumn(w, b)
		row[c>>6] ^= 1 << uint(c&63)
		if par != nil {
			par[c>>6] ^= 1 << uint(c&63)
		}
	}
}

func randWords(rng *rand.Rand, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = rng.Uint64()
	}
	return out
}

// checkKernel runs one gather and two scatters (with and without
// parity) of slot w through the kernel and the reference. Rows and
// deltas carry random bits everywhere, padding and tail words included:
// the kernel must neither read nor write outside slot w's columns.
func checkKernel(t *testing.T, rng *rand.Rand, d, nb, w int) {
	t.Helper()
	l := Layout{Rows: 1, WordsPerRow: d, CodewordBits: nb}
	k := newInterleave(d, nb)
	if k.rowWords != bitvec.WordsFor(l.RowBits()) || k.cwWords != bitvec.WordsFor(nb) {
		t.Fatalf("d=%d nb=%d: kernel geometry rowWords=%d cwWords=%d", d, nb, k.rowWords, k.cwWords)
	}
	row := randWords(rng, k.rowWords)
	got := randWords(rng, k.cwWords) // stale contents must be overwritten
	k.gather(got, row, w)
	want := refGather(l, row, w)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("d=%d nb=%d w=%d: gather word %d = %#x, want %#x", d, nb, w, i, got[i], want[i])
		}
	}

	delta := randWords(rng, k.cwWords)
	if rng.Intn(4) == 0 {
		// Sparse deltas exercise the zero-chunk skip.
		for i := range delta {
			delta[i] &= rng.Uint64() & rng.Uint64() & rng.Uint64()
		}
	}
	for _, withPar := range []bool{false, true} {
		kr := append([]uint64(nil), row...)
		rr := append([]uint64(nil), row...)
		var kp, rp []uint64
		if withPar {
			kp = randWords(rng, k.rowWords)
			rp = append([]uint64(nil), kp...)
		}
		k.scatter(kr, kp, w, delta)
		refScatter(l, rr, rp, w, delta)
		for i := range rr {
			if kr[i] != rr[i] {
				t.Fatalf("d=%d nb=%d w=%d par=%v: scatter row word %d = %#x, want %#x", d, nb, w, withPar, i, kr[i], rr[i])
			}
			if withPar && kp[i] != rp[i] {
				t.Fatalf("d=%d nb=%d w=%d: scatter parity word %d = %#x, want %#x", d, nb, w, i, kp[i], rp[i])
			}
		}
	}
}

// TestInterleaveKernelVsReference covers every interleave degree 1..66
// — the stride kernel for d dividing 64 and the bit-loop fallback for
// the rest — at each codeword width the online caches use, every word
// slot of every row.
func TestInterleaveKernelVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	codes := []ecc.HorizontalCode{ecc.MustEDC(64, 8), ecc.MustEDC(64, 16), ecc.MustSECDED(64)}
	for d := 1; d <= 66; d++ {
		for _, c := range codes {
			nb := ecc.CodewordBits(c)
			for w := 0; w < d; w++ {
				for trial := 0; trial < 3; trial++ {
					checkKernel(t, rng, d, nb, w)
				}
			}
		}
	}
}

// TestStrideConstants pins compress/expand (and the unrolled d = 4 and
// d = 8 forms) as exact inverses on the stride-d lattice for every d that
// divides 64.
func TestStrideConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for i, s := range strides {
		d := 1 << i
		low := s.lvl[s.rounds]
		for trial := 0; trial < 200; trial++ {
			x := rng.Uint64()
			c := s.compress(x)
			var want uint64
			for j := 0; j < s.k; j++ {
				want |= (x >> uint(j*d) & 1) << uint(j)
			}
			if c != want {
				t.Fatalf("d=%d: compress(%#x) = %#x, want %#x", d, x, c, want)
			}
			if e := s.expand(c); e != x&s.lvl[0] {
				t.Fatalf("d=%d: expand(compress(%#x)) = %#x, want %#x", d, x, e, x&s.lvl[0])
			}
			if c&^low != 0 {
				t.Fatalf("d=%d: compress leaked above bit %d", d, s.k)
			}
			if d == 8 && gather8(x) != c {
				t.Fatalf("gather8(%#x) = %#x, want %#x", x, gather8(x), c)
			}
			if d == 8 && scatter8(c) != x&s.lvl[0] {
				t.Fatalf("scatter8(%#x) = %#x, want %#x", c, scatter8(c), x&s.lvl[0])
			}
			if d == 4 && (gather4(x) != c || scatter4(c) != x&s.lvl[0]) {
				t.Fatalf("d=4: gather4(%#x) = %#x, scatter4 = %#x; want %#x, %#x",
					x, gather4(x), scatter4(c), c, x&s.lvl[0])
			}
		}
	}
}

// TestWideCodewordVectorPath drives a 266-bit SECDED(256) codeword —
// five kernel words, a partial tail — through the Vector Write/Read
// path at every d in 1..66. The physical rows must hold each written
// codeword exactly at its PhysColumn positions, the vertical parity
// must stay consistent, and a single flipped cell must be corrected in
// line.
func TestWideCodewordVectorPath(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	code := ecc.MustSECDED(256)
	for d := 1; d <= 66; d++ {
		a := MustArray(Config{Rows: 4, WordsPerRow: d, Horizontal: code, VerticalGroups: 2})
		l := a.Layout()
		want := bitvec.NewMatrix(4, l.RowBits())
		written := map[[2]int]*bitvec.Vector{}
		for i := 0; i < 2*d+4; i++ {
			r, w := rng.Intn(4), rng.Intn(d)
			v := randVec(rng, 256)
			if st := a.Write(r, w, v); st != ReadClean {
				t.Fatalf("d=%d: Write(%d,%d) status %v", d, r, w, st)
			}
			written[[2]int{r, w}] = v
			cw := code.Encode(v)
			for b := 0; b < l.CodewordBits; b++ {
				want.Set(r, l.PhysColumn(w, b), cw.Bit(b))
			}
		}
		if !a.SnapshotData().Equal(want) {
			t.Fatalf("d=%d: physical rows differ from the PhysColumn reference", d)
		}
		if !a.verticalConsistent() {
			t.Fatalf("d=%d: vertical parity inconsistent after writes", d)
		}
		for rw, v := range written {
			got, st := a.Read(rw[0], rw[1])
			if st != ReadClean || !got.Equal(v) {
				t.Fatalf("d=%d: Read(%d,%d) status %v, equal %v", d, rw[0], rw[1], st, got.Equal(v))
			}
			a.FlipBit(rw[0], l.PhysColumn(rw[1], rng.Intn(l.CodewordBits)))
			got, st = a.Read(rw[0], rw[1])
			if st != ReadCorrectedInline || !got.Equal(v) {
				t.Fatalf("d=%d: Read(%d,%d) after one flip: status %v, equal %v", d, rw[0], rw[1], st, got.Equal(v))
			}
		}
		if rep := a.VerifyIntegrity(); !rep.Clean() {
			t.Fatalf("d=%d: array not clean after inline repairs: %+v", d, rep)
		}
	}
}

// FuzzInterleaveKernel differentially fuzzes the kernel against the
// PhysColumn reference over arbitrary degrees, codeword widths, slots
// and bit contents.
func FuzzInterleaveKernel(f *testing.F) {
	f.Add(uint8(8), uint16(72), uint8(3), int64(1))    // data arrays: EDC8/SECDED(64), d = 8
	f.Add(uint8(4), uint16(72), uint8(0), int64(2))    // tag arrays, d = 4
	f.Add(uint8(4), uint16(80), uint8(3), int64(3))    // EDC16, partial last row word
	f.Add(uint8(1), uint16(266), uint8(0), int64(4))   // contiguous layout, wide codeword
	f.Add(uint8(64), uint16(266), uint8(63), int64(5)) // one bit per row word
	f.Add(uint8(3), uint16(72), uint8(2), int64(6))    // fallback: d does not divide 64
	f.Add(uint8(66), uint16(1), uint8(65), int64(7))   // fallback, one-bit codeword
	f.Fuzz(func(t *testing.T, d uint8, nb uint16, w uint8, seed int64) {
		dd := int(d)%66 + 1
		nbb := int(nb)%300 + 1
		checkKernel(t, rand.New(rand.NewSource(seed)), dd, nbb, int(w)%dd)
	})
}
