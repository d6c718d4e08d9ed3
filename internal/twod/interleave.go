package twod

import "math/bits"

// --- stride-d interleave kernel ------------------------------------------
//
// With d-way interleaving, codeword bit b of word slot w sits at
// physical column b*d + w. When d divides 64 every physical row word
// holds k = 64/d consecutive codeword bits of each slot, at bit
// positions w, w+d, w+2d, ... of that row word. Gathering a codeword is
// then one shift and log2(k) constant shift-and-mask rounds per row
// word (a "compress"), and scattering a delta is the inverse "expand"
// XOR-ed into the data row word and its parity row word together —
// instead of one shift/mask step per codeword bit. Geometries whose d
// does not divide 64 keep the bit loop: a pcache tag array whose Ways
// is not a power of two, or a data array of LineBytes >= 1024 (d >= 128).

// stride holds the shift-and-mask constants of one interleave degree d
// (a power of two up to 64). Shared package-wide: every array of the
// same d points at the same entry, so the kernel costs no per-array
// tables.
type stride struct {
	// k is the number of codeword bits one row word holds per slot.
	k int
	// rounds is log2(k), the number of compress/expand rounds.
	rounds int
	// lvl[s] selects groups of 2^s adjacent bits at multiples of
	// 2^s*d; lvl[0] picks bits 0, d, 2d, ... and lvl[rounds] the low k
	// bits.
	lvl [7]uint64
	// shift[s] is 2^s*(d-1): the distance that closes (or opens) the
	// gap between two neighbouring groups of round s.
	shift [6]uint
}

// strides[i] is the kernel for d = 1<<i.
var strides = func() (t [7]stride) {
	for i := range t {
		d := 1 << i
		s := &t[i]
		s.k = 64 / d
		s.rounds = bits.TrailingZeros(uint(s.k))
		for lv := 0; lv <= s.rounds; lv++ {
			size, span := 1<<lv, (1<<lv)*d
			var m uint64
			for pos := 0; pos < 64; pos += span {
				m |= (uint64(1)<<size - 1) << pos
			}
			s.lvl[lv] = m
		}
		for r := 0; r < s.rounds; r++ {
			s.shift[r] = uint((1 << r) * (d - 1))
		}
	}
	return t
}()

// compress packs the bits at positions 0, d, 2d, ... of x into its low
// k bits.
func (s *stride) compress(x uint64) uint64 {
	x &= s.lvl[0]
	for r := 0; r < s.rounds; r++ {
		x = (x | x>>s.shift[r]) & s.lvl[r+1]
	}
	return x
}

// expand is compress's inverse: the low k bits of x move to positions
// 0, d, 2d, ....
func (s *stride) expand(x uint64) uint64 {
	for r := s.rounds - 1; r >= 0; r-- {
		x = (x | x<<s.shift[r]) & s.lvl[r]
	}
	return x
}

// gather8 is compress for d = 8 as a single multiply: bit 8j of the
// masked input lands at bit 56+j of the product, and no two partial
// products overlap, so no carry disturbs the top byte.
func gather8(x uint64) uint64 {
	return (x & 0x0101010101010101) * 0x0102040810204080 >> 56
}

// scatter8 is expand for d = 8. Multiplying the low seven bits by
// sum(2^(7i)) places bit j at 8j with no two partial products sharing a
// position (that would need |j-j'| = 7); bit 7 moves by a plain shift.
func scatter8(c uint64) uint64 {
	return (c&0x7F)*0x0002040810204081&0x0101010101010101 | (c&0x80)<<49
}

// gather4 and scatter4 are compress and expand for d = 4 — the tag
// arrays' degree — with the rounds unrolled over literal constants
// (strides[2]). Like gather8/scatter8 they are kept because they beat
// the table-driven rounds in BenchmarkArray{ReadUint64,WriteUint64}
// (results/BENCH_kernels.md).
func gather4(x uint64) uint64 {
	x &= 0x1111111111111111
	x = (x | x>>3) & 0x0303030303030303
	x = (x | x>>6) & 0x000F000F000F000F
	x = (x | x>>12) & 0x000000FF000000FF
	return (x | x>>24) & 0xFFFF
}

func scatter4(x uint64) uint64 {
	x = (x | x<<24) & 0x000000FF000000FF
	x = (x | x<<12) & 0x000F000F000F000F
	x = (x | x<<6) & 0x0303030303030303
	return (x | x<<3) & 0x1111111111111111
}

// interleave is one array's view of the kernel: its geometry plus the
// shared stride constants (nil when d does not divide 64).
type interleave struct {
	d        int
	nb       int // codeword bits
	cwWords  int // uint64 words per codeword
	rowWords int // uint64 words per physical row
	tailMask uint64
	st       *stride
}

func newInterleave(d, nb int) interleave {
	k := interleave{
		d:        d,
		nb:       nb,
		cwWords:  (nb + 63) / 64,
		rowWords: (d*nb + 63) / 64,
		tailMask: ^uint64(0),
	}
	if rem := nb & 63; rem != 0 {
		k.tailMask = 1<<uint(rem) - 1
	}
	if d <= 64 && 64%d == 0 {
		k.st = &strides[bits.TrailingZeros(uint(d))]
	}
	return k
}

// gather de-interleaves slot w's codeword out of the physical row words
// into dst[:cwWords]. Row bits outside slot w's columns, padding
// included, never reach dst.
func (k *interleave) gather(dst, row []uint64, w int) {
	s := k.st
	if s == nil {
		k.gatherBits(dst, row, w)
		return
	}
	row = row[:k.rowWords]
	for j := 0; j < k.cwWords; j++ {
		lo := j * k.d
		hi := min(lo+k.d, k.rowWords)
		var out uint64
		switch {
		case k.d == 8 && hi-lo == 8:
			// A whole codeword word from eight row words, unrolled; a
			// partial tail word takes the table-driven rounds.
			r := row[lo:hi:hi]
			sh := uint(w)
			out = gather8(r[0]>>sh) | gather8(r[1]>>sh)<<8 |
				gather8(r[2]>>sh)<<16 | gather8(r[3]>>sh)<<24 |
				gather8(r[4]>>sh)<<32 | gather8(r[5]>>sh)<<40 |
				gather8(r[6]>>sh)<<48 | gather8(r[7]>>sh)<<56
		case k.d == 4:
			for i := lo; i < hi; i++ {
				out |= gather4(row[i]>>uint(w)) << uint((i-lo)*16)
			}
		default:
			for i := lo; i < hi; i++ {
				out |= s.compress(row[i]>>uint(w)) << uint((i-lo)*s.k)
			}
		}
		dst[j] = out
	}
	dst[k.cwWords-1] &= k.tailMask
}

// scatter XORs codeword delta into slot w's columns of the physical row
// words, and into par's when par is non-nil. Delta bits at or beyond the
// codeword width are ignored; all-zero chunks are skipped.
func (k *interleave) scatter(row, par []uint64, w int, delta []uint64) {
	s := k.st
	if s == nil {
		k.scatterBits(row, par, w, delta)
		return
	}
	row = row[:k.rowWords]
	if par != nil {
		par = par[:k.rowWords]
	}
	low := s.lvl[s.rounds]
	for j := 0; j < k.cwWords; j++ {
		x := delta[j]
		if j == k.cwWords-1 {
			x &= k.tailMask
		}
		for i := j * k.d; x != 0 && i < k.rowWords; i++ {
			if c := x & low; c != 0 {
				var m uint64
				switch k.d {
				case 8:
					m = scatter8(c)
				case 4:
					m = scatter4(c)
				default:
					m = s.expand(c)
				}
				m <<= uint(w)
				row[i] ^= m
				if par != nil {
					par[i] ^= m
				}
			}
			x >>= uint(s.k) // k = 64 (d = 1) empties x: Go shifts saturate
		}
	}
}

// gatherBits is the one-bit-per-step gather for d that does not divide
// 64.
func (k *interleave) gatherBits(dst, row []uint64, w int) {
	for i := 0; i < k.cwWords; i++ {
		dst[i] = 0
	}
	col := w
	for b := 0; b < k.nb; b++ {
		dst[b>>6] |= (row[col>>6] >> uint(col&63) & 1) << uint(b&63)
		col += k.d
	}
}

// scatterBits is the one-bit-per-step scatter for d that does not
// divide 64.
func (k *interleave) scatterBits(row, par []uint64, w int, delta []uint64) {
	for wi := 0; wi < k.cwWords; wi++ {
		x := delta[wi]
		if wi == k.cwWords-1 {
			x &= k.tailMask
		}
		base := wi << 6
		for x != 0 {
			col := (base+bits.TrailingZeros64(x))*k.d + w
			x &= x - 1
			m := uint64(1) << uint(col&63)
			row[col>>6] ^= m
			if par != nil {
				par[col>>6] ^= m
			}
		}
	}
}
