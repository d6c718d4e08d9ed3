package pcache

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
)

func smallCache(t testing.TB, secded bool) (*Cache, *MapBacking) {
	t.Helper()
	b := NewMapBacking(64)
	c := MustNew(Config{Sets: 16, Ways: 2, LineBytes: 64, SECDEDHorizontal: secded}, b)
	return c, b
}

func TestConfigValidation(t *testing.T) {
	b := NewMapBacking(64)
	bad := []Config{
		{Sets: 0, Ways: 2, LineBytes: 64},
		{Sets: 3, Ways: 2, LineBytes: 64},
		{Sets: 16, Ways: 0, LineBytes: 64},
		{Sets: 16, Ways: 2, LineBytes: 60},
		{Sets: 16, Ways: 2, LineBytes: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, b); err == nil {
			t.Errorf("case %d accepted: %+v", i, cfg)
		}
	}
	if _, err := New(Config{Sets: 16, Ways: 2, LineBytes: 64}, nil); err == nil {
		t.Error("nil backing accepted")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	c, _ := smallCache(t, false)
	if err := c.Write(0x1000, []byte("hello protected world")); err != nil {
		t.Fatal(err)
	}
	got, err := c.Read(0x1000, 21)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello protected world" {
		t.Fatalf("read %q", got)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestSpanChecks(t *testing.T) {
	c, _ := smallCache(t, false)
	if _, err := c.Read(60, 8); err == nil {
		t.Fatal("line-crossing read accepted")
	}
	if err := c.Write(0, make([]byte, 65)); err == nil {
		t.Fatal("oversized write accepted")
	}
	if _, err := c.Read(0, 0); err == nil {
		t.Fatal("zero-size read accepted")
	}
}

func TestWritebackOnEviction(t *testing.T) {
	c, b := smallCache(t, false)
	// Fill set 0 with three conflicting lines (2 ways).
	stride := uint64(16 * 64)
	if err := c.Write(0, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(stride, []byte{0xBB}); err != nil {
		t.Fatal(err)
	}
	if err := c.Write(2*stride, []byte{0xCC}); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Writebacks == 0 {
		t.Fatal("no writeback on dirty eviction")
	}
	// The evicted line's data must be in the backing store.
	if b.ReadLine(0)[0] != 0xAA {
		t.Fatal("evicted data lost")
	}
	// Re-reading the evicted line refetches it correctly.
	got, err := c.Read(0, 1)
	if err != nil || got[0] != 0xAA {
		t.Fatalf("refetch: %v %v", got, err)
	}
}

func TestFlush(t *testing.T) {
	c, b := smallCache(t, false)
	for i := 0; i < 8; i++ {
		if err := c.Write(uint64(i)*64, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if b.ReadLine(uint64(i) * 64)[0] != byte(i+1) {
			t.Fatalf("line %d not flushed", i)
		}
	}
	// Second flush is a no-op (no dirty lines).
	wb := c.Stats().Writebacks
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Writebacks != wb {
		t.Fatal("clean flush wrote back")
	}
}

func TestTransparentErrorRecoveryInData(t *testing.T) {
	c, _ := smallCache(t, false)
	payload := []byte("precious data that must survive")
	if err := c.Write(0x2000, payload); err != nil {
		t.Fatal(err)
	}
	// Inject a 16x16 clustered error into the bank holding 0x2000's set.
	da, _ := c.BankArrays(c.BankOf(0))
	for r := 0; r < 16 && r < da.Rows(); r++ {
		for col := 0; col < 16; col++ {
			da.FlipBit(r, col)
		}
	}
	got, err := c.Read(0x2000, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("data corrupted: %q", got)
	}
	if c.Stats().ErrorsRecovered == 0 {
		t.Fatal("recovery not recorded")
	}
}

func TestTransparentErrorRecoveryInTags(t *testing.T) {
	c, _ := smallCache(t, true) // SECDED horizontal: inline tag repair
	if err := c.Write(0x3000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	_, ta := c.BankArrays(c.BankOf(0))
	ta.FlipBit(0, 0) // single-bit tag error somewhere in set 0
	got, err := c.Read(0x3000, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("tag corruption broke lookup: %v", got)
	}
}

func TestScrub(t *testing.T) {
	c, _ := smallCache(t, false)
	_ = c.Write(0, []byte{9})
	da, _ := c.BankArrays(c.BankOf(0))
	da.FlipBit(0, 3)
	if !c.Scrub() {
		t.Fatal("scrub failed")
	}
	got, _ := c.Read(0, 1)
	if got[0] != 9 {
		t.Fatal("scrub lost data")
	}
}

func TestRandomisedAgainstReferenceModel(t *testing.T) {
	// Property: the protected cache, under random accesses AND random
	// single-cell upsets in its data and tag arrays, behaves exactly
	// like a flat byte map. Ways = 3 gives the tag arrays an interleave
	// degree that does not divide 64, so they run twod's
	// one-bit-per-step gather/scatter fallback.
	for _, ways := range []int{2, 3} {
		t.Run(fmt.Sprintf("ways=%d", ways), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			c := MustNew(Config{Sets: 16, Ways: ways, LineBytes: 64}, NewMapBacking(64))
			if _, ta := c.BankArrays(0); ta.Layout().WordsPerRow != ways {
				t.Fatalf("tag interleave degree %d, want %d", ta.Layout().WordsPerRow, ways)
			}
			ref := map[uint64]byte{}
			const span = 64 * 256 // many lines, some conflicts
			for i := 0; i < 4000; i++ {
				addr := uint64(rng.Intn(span))
				switch rng.Intn(5) {
				case 0, 1:
					val := byte(rng.Intn(256))
					if err := c.Write(addr, []byte{val}); err != nil {
						t.Fatal(err)
					}
					ref[addr] = val
				case 2:
					// Soft error: at most one flip per currently-clean
					// word, so every upset stays within the horizontal
					// code's guaranteed detection. (Unrestricted
					// accumulation can build undetectable code-valid
					// patterns, which are beyond 2D coverage — the
					// flat-map equivalence asserted here only holds
					// within coverage.)
					da, ta := c.BankArrays(rng.Intn(c.NumBanks()))
					arr := da
					if rng.Intn(3) == 0 {
						arr = ta
					}
					r, col := rng.Intn(arr.Rows()), rng.Intn(arr.RowBits())
					w, _ := arr.Layout().Locate(col)
					if _, ok := arr.TryRead(r, w); ok {
						arr.FlipBit(r, col)
					}
				default:
					got, err := c.Read(addr, 1)
					if err != nil {
						t.Fatal(err)
					}
					if got[0] != ref[addr] {
						t.Fatalf("i=%d addr=%#x: got %d want %d", i, addr, got[0], ref[addr])
					}
				}
			}
			if c.Stats().ErrorsRecovered == 0 {
				t.Fatal("no recoveries happened — test not exercising errors")
			}
			if !c.Scrub() {
				t.Fatal("scrub failed")
			}
			for b := 0; b < c.NumBanks(); b++ {
				da, ta := c.BankArrays(b)
				if rep := da.VerifyIntegrity(); !rep.Clean() {
					t.Fatalf("bank %d data after scrub: %+v", b, rep)
				}
				if rep := ta.VerifyIntegrity(); !rep.Clean() {
					t.Fatalf("bank %d tags after scrub: %+v", b, rep)
				}
			}
		})
	}
}

func TestMapBacking(t *testing.T) {
	b := NewMapBacking(64)
	if b.ReadLine(0)[5] != 0 {
		t.Fatal("cold line not zeroed")
	}
	d := make([]byte, 64)
	d[5] = 7
	b.WriteLine(0, d)
	d[5] = 9 // caller mutation must not affect the store
	if b.ReadLine(0)[5] != 7 {
		t.Fatal("backing aliased caller slice")
	}
}

func TestUncorrectableSurfacesAndRepairs(t *testing.T) {
	c, _ := smallCache(t, false)
	if err := c.Write(0x4000, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	// Corrupt far beyond coverage: a solid block in 0x4000's bank.
	da, _ := c.BankArrays(c.BankOf(0))
	for r := 0; r < 32 && r < da.Rows(); r++ {
		for col := 0; col < 200; col++ {
			da.FlipBit(r, col)
		}
	}
	for r := 0; r < da.Rows(); r++ { // plus a full column, same groups
		da.FlipBit(r, 300)
	}
	sawErr := false
	for addr := uint64(0); addr < 64*64; addr += 64 {
		if _, err := c.Read(addr, 1); err != nil {
			if !errors.Is(err, ErrUncorrectable) {
				t.Fatalf("unexpected error %v", err)
			}
			var ue *UncorrectableError
			if !errors.As(err, &ue) || ue.Array != ArrayData {
				t.Fatalf("error not a located *UncorrectableError: %v", err)
			}
			sawErr = true
			c.Repair(addr)
		}
	}
	if !sawErr {
		t.Skip("corruption happened to stay within coverage")
	}
	if c.Stats().Uncorrectable == 0 {
		t.Fatal("uncorrectable not counted")
	}
	// After repair, the flushed value is intact (it was clean in backing).
	got, err := c.Read(0x4000, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Fatalf("repaired read = %d", got[0])
	}
}
