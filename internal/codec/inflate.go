package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// This file holds the decoding half of the package's DEFLATE codec (RFC
// 1951) and the tables both halves share. The decoder reads one whole
// stream from memory, never more than DefaultMaxFrame bytes of output,
// and gives the same verdict on every input as compress/flate's reader
// (FuzzInflateMatchesStdlib holds it to that): a code must be complete
// unless it is empty or a single code of one bit, HLIT may not exceed 286
// nor HDIST 30, and bits past the end of the stream are an
// io.ErrUnexpectedEOF. Bytes after the final block are ignored.

// Decode table entries pack everything one lookup needs into a uint32:
// bits 0–4 hold the code length to consume (for a link, the subtable's
// index width), bits 5–7 the kind, bits 8–12 the count of extra bits,
// and bits 16–31 the base value: the literal byte, a match length or
// distance base, or a link's subtable offset.
const (
	entryLit  = 1 << 5 // a literal byte
	entryEnd  = 1 << 6 // end of block, or with a base of 1 an invalid code
	entryLink = 1 << 7 // points at a subtable
	entryBad  = entryEnd | 1<<16
)

// Primary table widths and the table sizes they need: the largest
// two-level table a complete code of 288 (32) symbols up to 15 bits long
// needs at 10 (8) primary bits is 1334 (402) entries, per zlib's enough.
const (
	litRootBits  = 10
	distRootBits = 8
	clRootBits   = 7
	litTableLen  = 1334
	distTableLen = 402
)

// Length and distance symbols: the base of each and the count of extra
// bits that follow it (RFC 1951 §3.2.5).
var (
	lengthBase  = [29]uint16{3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31, 35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258}
	lengthExtra = [29]uint8{0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0}
	distBase    = [30]uint16{1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193, 257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145, 8193, 12289, 16385, 24577}
	distExtra   = [30]uint8{0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13}
)

// clOrder is the order a dynamic block header lists the code-length
// code's lengths in. Of the code-length symbols, 16 repeats the previous
// length 3–6 times and 17 and 18 repeat zero 3–10 and 11–138 times:
// rleBase[s] and rleExtra[s] are their least count and extra bits.
var (
	clOrder  = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
	rleBase  = [19]uint8{16: 3, 17: 3, 18: 11}
	rleExtra = [19]uint8{16: 2, 17: 3, 18: 7}
)

// fixedLens holds the fixed code's literal/length lengths, then its
// distance lengths (RFC 1951 §3.2.6).
var fixedLens = func() (l [288 + 32]uint8) {
	s := 0
	for _, run := range [][2]int{{144, 8}, {256, 9}, {280, 7}, {288, 8}, {320, 5}} {
		for ; s < run[0]; s++ {
			l[s] = uint8(run[1])
		}
	}
	return l
}()

// Per-symbol entry payloads, and the fixed code's decode tables, built
// once.
var (
	litInfo   [288]uint32 // litInfo[:19] serves the code-length code too
	distInfo  [32]uint32
	fixedLit  [1 << litRootBits]uint32
	fixedDist [1 << distRootBits]uint32

	fixedLitBits, fixedDistBits uint
)

func init() {
	for s := range 256 {
		litInfo[s] = uint32(s)<<16 | entryLit
	}
	for s, base := range lengthBase {
		litInfo[257+s] = uint32(base)<<16 | uint32(lengthExtra[s])<<8
	}
	for s, base := range distBase {
		distInfo[s] = uint32(base)<<16 | uint32(distExtra[s])<<8
	}
	litInfo[256], litInfo[286], litInfo[287] = entryEnd, entryBad, entryBad
	distInfo[30], distInfo[31] = entryBad, entryBad
	fixedLitBits, _ = buildTable(fixedLit[:], fixedLens[:288], litRootBits, litInfo[:])
	fixedDistBits, _ = buildTable(fixedDist[:], fixedLens[288:], distRootBits, distInfo[:])
}

// buildTable fills t with the two-level decode table of the canonical
// code whose lengths are lens, each symbol's entry carrying
// info[symbol], and returns the width of its first level: maxRoot bits,
// or the longest code if shorter, so a small code builds a small table.
// It reports false for a code compress/flate refuses: one
// over-subscribed, or incomplete other than empty or a single one-bit
// code. The invalid codes of those two are entryBad.
func buildTable(t []uint32, lens []uint8, maxRoot uint, info []uint32) (root uint, ok bool) {
	var count [16]uint16
	maxLen := uint(0)
	for _, l := range lens {
		if l != 0 { // most are 0 in a small block: skip the serial count[0]++
			count[l]++
			maxLen = max(maxLen, uint(l))
		}
	}
	root = min(maxRoot, maxLen)
	kraft := 0
	for l := uint(1); l <= 15; l++ {
		kraft += int(count[l]) << (15 - l)
	}
	if kraft != 1<<15 {
		if kraft != 0 && (maxLen != 1 || count[1] != 1) {
			return 0, false
		}
		for i := range t[:1<<root] {
			t[i] = entryBad
		}
	}
	// Symbols in canonical order: by length, then by value.
	var offs [17]uint16
	for l := 1; l <= 15; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}
	rootMask := uint32(1)<<root - 1
	next := uint32(1) << root // where the next subtable goes
	prefix, sub, subBits := ^uint32(0), uint32(0), uint(0)
	code, i := uint32(0), 0
	for l := uint(1); l <= maxLen; l++ {
		for n := count[l]; n > 0; n-- {
			s := sorted[i]
			i++
			rev := uint32(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			if l <= root {
				e := info[s] | uint32(l)
				for j := rev; j < 1<<root; j += 1 << l {
					t[j] = e
				}
				continue
			}
			if rev&rootMask != prefix {
				// A new subtable, as wide as the codes that share this
				// prefix need: those left of this length and longer.
				prefix, sub, subBits = rev&rootMask, next, l-root
				for left := 1<<subBits - int(n); left > 0 && subBits+root < maxLen; {
					subBits++
					left = left<<1 - int(count[subBits+root])
				}
				next += 1 << subBits
				t[prefix] = sub<<16 | entryLink | uint32(subBits)
			}
			e := info[s] | uint32(l-root)
			for j := rev >> root; j < 1<<subBits; j += 1 << (l - root) {
				t[sub+j] = e
			}
		}
		code <<= 1
	}
	return root, true
}

// inflater is one decode in flight: the dynamic tables it builds and the
// code lengths it reads them from. Flate pools them.
type inflater struct {
	lit      [litTableLen]uint32
	dist     [distTableLen]uint32
	cl       [1 << clRootBits]uint32
	lens     [286 + 30]uint8
	litBits  uint // first-level widths of lit and dist
	distBits uint
}

var errCorrupt = errors.New("codec: corrupt deflate stream")

// grow returns out, holding its first n bytes, regrown through bufpool
// if it cannot take need bytes.
func grow(out []byte, n, need int) ([]byte, error) {
	if need <= len(out) {
		return out, nil
	}
	if need > DefaultMaxFrame {
		return out, fmt.Errorf("%w: decompressed payload over %d bytes", ErrValueOutOfBounds, DefaultMaxFrame)
	}
	b := bufpool.Get(min(max(2*len(out), need), DefaultMaxFrame))
	b = b[:min(cap(b), DefaultMaxFrame)]
	copy(b, out[:n])
	bufpool.Put(out)
	return b, nil
}

// lookup returns the entry of table t, root bits wide at its first
// level, for the code at the bottom of b, and the code's length.
func lookup(t []uint32, root uint, b uint64) (uint32, uint) {
	e := t[b&(1<<root-1)]
	if e&entryLink == 0 {
		return e, uint(e & 31)
	}
	e = t[e>>16+uint32(b>>root)&(1<<(e&31)-1)]
	return e, root + uint(e&31)
}

// bitReader reads a DEFLATE stream's bits, next bit lowest in b.
type bitReader struct {
	src []byte
	pos int    // next byte of src to load; passes len(src) by zero padding
	b   uint64 // buffered bits
	nb  uint   // count of buffered bits
}

// refill tops b up to at least 56 bits, eight bytes at a time while
// eight remain and one at a time after. Past the end it feeds zeros, and
// fails once the bits taken already reach beyond the input.
func (r *bitReader) refill() error {
	if r.pos+8 <= len(r.src) {
		r.b |= binary.LittleEndian.Uint64(r.src[r.pos:]) << r.nb
		r.pos += int(63-r.nb) >> 3
		r.nb |= 56
		return nil
	}
	if r.overrun() {
		return io.ErrUnexpectedEOF
	}
	for ; r.nb <= 56; r.nb += 8 {
		if r.pos < len(r.src) {
			r.b |= uint64(r.src[r.pos]) << r.nb
		}
		r.pos++
	}
	return nil
}

// overrun reports whether the bits taken reach past the end of src.
func (r *bitReader) overrun() bool { return 8*r.pos-int(r.nb) > 8*len(r.src) }

// take consumes and returns the next n bits; b must hold them.
func (r *bitReader) take(n uint) uint32 {
	v := uint32(r.b & (1<<n - 1))
	r.b >>= n
	r.nb -= n
	return v
}

// inflate decodes the whole DEFLATE stream src into out, a bufpool
// buffer whose whole length is free space, regrowing it through bufpool,
// and returns it cut to the decoded bytes (or, on error, whichever buffer
// it holds by then, for recycling). Output past DefaultMaxFrame fails
// with ErrValueOutOfBounds, the buffer grown to at most that.
func (f *inflater) inflate(out, src []byte) ([]byte, error) {
	r := bitReader{src: src}
	o := 0 // bytes decoded
	var err error
	for final := false; !final; {
		if err := r.refill(); err != nil {
			return out, err
		}
		final = r.take(1) == 1
		lit, litBits, dist, distBits := fixedLit[:], fixedLitBits, fixedDist[:], fixedDistBits
		switch r.take(2) {
		case 0:
			// Stored: skip to the byte boundary, then LEN and its
			// complement, then LEN bytes.
			p := (8*r.pos - int(r.nb) + 7) / 8
			if p+4 > len(src) {
				return out, io.ErrUnexpectedEOF
			}
			n := int(binary.LittleEndian.Uint16(src[p:]))
			if uint16(n) != ^binary.LittleEndian.Uint16(src[p+2:]) {
				return out, errCorrupt
			}
			p += 4
			if p+n > len(src) {
				return out, io.ErrUnexpectedEOF
			}
			if out, err = grow(out, o, o+n); err != nil {
				return out, err
			}
			o += copy(out[o:], src[p:p+n])
			r = bitReader{src: src, pos: p + n}
			continue
		case 1:
		case 2:
			if err := f.readTables(&r); err != nil {
				return out, err
			}
			lit, litBits, dist, distBits = f.lit[:], f.litBits, f.dist[:], f.distBits
		default:
			return out, errCorrupt
		}
		// The hot loop keeps the reader's state in locals.
		b, nb, pos := r.b, r.nb, r.pos
		for {
			// One length/distance pair takes at most 15+5+15+13 = 48 bits.
			if nb < 48 {
				if pos+8 <= len(src) {
					b |= binary.LittleEndian.Uint64(src[pos:]) << nb
					pos += int(63-nb) >> 3
					nb |= 56
				} else {
					r.b, r.nb, r.pos = b, nb, pos
					if err := r.refill(); err != nil {
						return out, err
					}
					b, nb, pos = r.b, r.nb, r.pos
				}
			}
			e, k := lookup(lit, litBits, b)
			b >>= k
			nb -= k
			if e&entryLit != 0 {
				if o >= len(out) {
					if out, err = grow(out, o, o+1); err != nil {
						return out, err
					}
				}
				out[o] = byte(e >> 16)
				o++
				continue
			}
			if e&entryEnd != 0 {
				if e>>16 != 0 {
					return out, errCorrupt
				}
				break
			}
			n := int(e>>16) + int(b&(1<<(e>>8&31)-1))
			b >>= e >> 8 & 31
			nb -= uint(e >> 8 & 31)
			e, k = lookup(dist, distBits, b)
			d := int(e>>16) + int(b>>k&(1<<(e>>8&31)-1))
			b >>= k + uint(e>>8&31)
			nb -= k + uint(e>>8&31)
			if e&entryEnd != 0 || d > o {
				return out, errCorrupt
			}
			if o+n > len(out) {
				if out, err = grow(out, o, o+n); err != nil {
					return out, err
				}
			}
			from, end := o-d, o+n
			if d >= 8 && end+8 <= len(out) {
				// Eight bytes at a time, each already written; the last
				// word may spill into free space past end.
				for ; o < end; o, from = o+8, from+8 {
					binary.LittleEndian.PutUint64(out[o:], binary.LittleEndian.Uint64(out[from:]))
				}
				o = end
				continue
			}
			// An overlapping match repeats its last d bytes: copy what
			// is there, then the doubled run, until n are written.
			for o < end {
				o += copy(out[o:end], out[from:o])
			}
		}
		r.b, r.nb, r.pos = b, nb, pos
		if r.overrun() {
			return out, io.ErrUnexpectedEOF
		}
	}
	return out[:o], nil
}

// readTables reads a dynamic block's header into f.lit and f.dist.
func (f *inflater) readTables(r *bitReader) error {
	nlit := int(r.take(5)) + 257
	ndist := int(r.take(5)) + 1
	ncl := int(r.take(4)) + 4
	if nlit > 286 || ndist > 30 {
		return errCorrupt
	}
	var clLens [19]uint8
	for i := 0; i < ncl; i++ {
		if err := r.refill(); err != nil {
			return err
		}
		clLens[clOrder[i]] = uint8(r.take(3))
	}
	clBits, ok := buildTable(f.cl[:], clLens[:], clRootBits, litInfo[:19])
	if !ok {
		return errCorrupt
	}
	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		if err := r.refill(); err != nil {
			return err
		}
		e, k := lookup(f.cl[:], clBits, r.b)
		if e&entryEnd != 0 {
			return errCorrupt
		}
		r.take(k)
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var l uint8
		if sym == 16 {
			if i == 0 {
				return errCorrupt
			}
			l = lens[i-1]
		}
		rep := int(rleBase[sym]) + int(r.take(uint(rleExtra[sym])))
		if i+rep > len(lens) {
			return errCorrupt
		}
		for ; rep > 0; rep-- {
			lens[i] = l
			i++
		}
	}
	if f.litBits, ok = buildTable(f.lit[:], lens[:nlit], litRootBits, litInfo[:]); !ok {
		return errCorrupt
	}
	if f.distBits, ok = buildTable(f.dist[:], lens[nlit:], distRootBits, distInfo[:]); !ok {
		return errCorrupt
	}
	return nil
}
