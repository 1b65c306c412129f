package codec

import (
	"encoding/binary"
	"math/bits"
	"slices"
)

// This file holds the encoding half of the package's DEFLATE codec. A
// Snappy-class matcher (one 4-byte hash probe per position, skipping
// faster through bytes that do not match) turns each block of about 64
// KiB into literal runs and matches while counting both histograms, and
// the block is written with the Huffman codes those counts give. A block
// under 96 bytes takes the fixed code instead, which spares building
// three codes and a header: on word text its output is 10 % smaller than
// a dynamic block's at 32 bytes and 5 % larger at 64. There
// are no stored blocks: on incompressible input a dynamic block is a
// fraction of a percent larger than its input, and core ships raw
// whatever did not shrink. Every buffer is reused, and the only table
// cleared per call is the slice of the hash table the input can reach, so
// the fixed cost of a call stays proportional to its input.

const (
	blockSize   = 64 << 10                 // input bytes per block
	maxBlock    = blockSize + blockSize/16 // a last block absorbs a short tail
	maxMatch    = 258
	maxDist     = 32768
	minHashBits = 8
	maxHashBits = 14
	maxCodeBits = 15 // longest literal/length and distance code
	maxCLBits   = 7  // longest code-length code
	fixedBelow  = 96 // blocks shorter than this use the fixed code
)

// seq is a run of literals followed by a match; the block's last seq has
// no match (length 0).
type seq struct {
	lits   uint32
	length uint16
	dist   uint16
}

// lenSymbol returns the length symbol, less 257, of a match of n bytes:
// lengths 3–6 have one each, then each doubling of n-3 takes four, but
// for 258's own.
func lenSymbol(n int) int {
	x := uint32(n - 3)
	if x < 4 || n == maxMatch {
		return min(int(x), 28)
	}
	l := bits.Len32(x)
	return 4*l - 8 + int(x>>(l-3)&3)
}

// distSymbol returns the symbol of distance d: distances 1 and 2 have
// one each, then each doubling of d-1 takes two.
func distSymbol(d int) int {
	x := uint32(d - 1)
	if x < 2 {
		return int(x)
	}
	l := bits.Len32(x)
	return 2*l - 2 + int(x>>(l-2)&1)
}

// deflater is one encode in flight: the hash table, one block's
// sequences and histograms, and the scratch the codes are built in.
// Flate pools them.
type deflater struct {
	table     [1 << maxHashBits]uint32
	seqs      []seq
	extraBits int // the block's length and distance extra bits
	litFreq   [286]uint32
	distFreq  [30]uint32
	litCodes  [286]uint32 // bit-reversed code | length<<16
	distCodes [30]uint32
	clFreq    [19]uint32
	clLens    [19]uint8
	clCodes   [19]uint32
	allLens   [286 + 30]uint8
	distLens  [30]uint8
	rle       [286 + 30]uint16 // code-length symbol | extra bits<<8
	keys      [286]uint32
	weights   [286]uint32
}

// deflate appends the DEFLATE stream of src to dst, growing dst like
// append when it lacks the room.
func (e *deflater) deflate(dst, src []byte) []byte {
	hashBits := uint(min(max(bits.Len(uint(len(src))), minHashBits), maxHashBits))
	table := e.table[:1<<hashBits]
	clear(table)
	w := bitWriter{out: dst[:cap(dst)], i: len(dst)}
	for start, last := 0, uint64(0); last == 0; start += blockSize {
		end := start + blockSize
		if len(src)-end < blockSize/16 {
			end, last = len(src), 1
		}
		e.tokenise(src, start, end, table, 32-hashBits)
		e.writeBlock(&w, src, start, end, last)
	}
	binary.LittleEndian.PutUint64(w.out[w.i:], w.b)
	return w.out[:w.i+int(w.nb+7)/8]
}

// fixedCodes holds the fixed code's literal/length codes, then its
// distance codes.
var fixedCodes = func() (c [288 + 32]uint32) {
	canonical(fixedLens[:288], c[:288])
	canonical(fixedLens[288:], c[288:])
	return c
}()

func hash4(u uint32, shift uint) uint32 { return u * 0x1e35a7bd >> shift }

func load32(b []byte, i int) uint32 { return binary.LittleEndian.Uint32(b[i:]) }

// tokenise fills e.seqs and the histograms with src[start:end]'s
// literals and matches, which may reach back into src[:start].
func (e *deflater) tokenise(src []byte, start, end int, table []uint32, shift uint) {
	e.seqs, e.extraBits = e.seqs[:0], 0
	clear(e.litFreq[:])
	clear(e.distFreq[:])
	emit := start      // first byte not yet in a seq
	s := max(start, 1) // position 0 has no history to match
	sLimit := end - 8  // leaves room for the 8-byte load at s-1
	if s < sLimit {
		nextHash := hash4(load32(src, s), shift)
	search:
		for {
			// Look for a 4-byte match, probing every byte at first and
			// then, after each 32 misses, one byte further apart.
			skip, next, cand := 32, s, 0
			for {
				s = next
				next = s + skip>>5
				skip += skip >> 5
				if next > sLimit {
					break search
				}
				cand = int(table[nextHash])
				table[nextHash] = uint32(s)
				nextHash = hash4(load32(src, next), shift)
				if s-cand <= maxDist && load32(src, s) == load32(src, cand) {
					break
				}
			}
			// Emit the match, and more while the next byte starts another.
			for {
				n := 4 + matchLen(src[cand+4:], src[s+4:min(end, s+maxMatch)])
				e.addSeq(src, emit, s, n, s-cand)
				s += n
				emit = s
				if s >= sLimit {
					break search
				}
				x := binary.LittleEndian.Uint64(src[s-1:])
				table[hash4(uint32(x), shift)] = uint32(s - 1)
				h := hash4(uint32(x>>8), shift)
				cand = int(table[h])
				table[h] = uint32(s)
				if s-cand > maxDist || uint32(x>>8) != load32(src, cand) {
					nextHash = hash4(uint32(x>>16), shift)
					s++
					break
				}
			}
		}
	}
	e.addSeq(src, emit, end, 0, 0)
}

// matchLen returns how many leading bytes of b a repeats; a is at least
// as long as b.
func matchLen(a, b []byte) int {
	n := 0
	for ; len(b)-n >= 8; n += 8 {
		if x := binary.LittleEndian.Uint64(a[n:]) ^ binary.LittleEndian.Uint64(b[n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for n < len(b) && a[n] == b[n] {
		n++
	}
	return n
}

// addSeq records the literals src[emit:s] and then a match of n bytes
// at distance d (none if n is 0), counting their symbols.
func (e *deflater) addSeq(src []byte, emit, s, n, d int) {
	for _, c := range src[emit:s] {
		e.litFreq[c]++
	}
	e.seqs = append(e.seqs, seq{lits: uint32(s - emit), length: uint16(n), dist: uint16(d)})
	if n > 0 {
		ls, ds := lenSymbol(n), distSymbol(d)
		e.litFreq[257+ls]++
		e.distFreq[ds]++
		e.extraBits += int(lengthExtra[ls]) + int(distExtra[ds])
	}
}

// bitWriter writes bits lowest first into out[i:], which has room for
// whatever the current block needs plus 8 bytes.
type bitWriter struct {
	out []byte
	i   int
	b   uint64
	nb  uint
}

// put writes the low n ≤ 16 bits of v.
func (w *bitWriter) put(v uint64, n uint) {
	w.b |= v << w.nb
	w.nb += n
	if w.nb >= 48 {
		w.i, w.b, w.nb = flushBits(w.out, w.i, w.b, w.nb)
	}
}

// flushBits stores the whole bytes of b at out[i:].
func flushBits(out []byte, i int, b uint64, nb uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(out[i:], b)
	return i + int(nb>>3), b >> (nb &^ 7), nb & 7
}

// writeBlock writes the block src[start:end], the stream's last if last
// is 1, from e's seqs and histograms: in the fixed code if it is shorter
// than fixedBelow, and as a dynamic block otherwise.
func (e *deflater) writeBlock(w *bitWriter, src []byte, start, end int, last uint64) {
	e.litFreq[256] = 1
	lit, dist, kind := fixedCodes[:288], fixedCodes[288:], uint64(1)
	var rle []uint16
	nlit, ndist, ncl, nbits := 0, 0, 19, 3+e.extraBits
	if end-start >= fixedBelow {
		if e.distFreq == [30]uint32{} {
			e.distFreq[0] = 1 // a dynamic header describes one distance code at least
		}
		// allLens holds the literal/length lengths, then from nlit on
		// the distance lengths, as the header lists them.
		nlit = e.huffLengths(e.litFreq[:], e.allLens[:286], maxCodeBits)
		ndist = e.huffLengths(e.distFreq[:], e.distLens[:], maxCodeBits)
		copy(e.allLens[nlit:], e.distLens[:ndist])
		rle = e.rleLengths(e.allLens[:nlit+ndist])
		e.huffLengths(e.clFreq[:], e.clLens[:], maxCLBits)
		for ncl > 4 && e.clLens[clOrder[ncl-1]] == 0 {
			ncl--
		}
		nbits += 14 + 3*ncl
		for _, r := range rle {
			nbits += int(e.clLens[r&31]) + int(rleExtra[r&31])
		}
		canonical(e.allLens[:nlit], e.litCodes[:])
		canonical(e.distLens[:], e.distCodes[:])
		lit, dist, kind = e.litCodes[:], e.distCodes[:], 2
	}
	for s, f := range e.litFreq {
		nbits += int(f) * int(lit[s]>>16)
	}
	for s, f := range e.distFreq {
		nbits += int(f) * int(dist[s]>>16)
	}
	// Room for the block, the bits still held and an 8-byte store.
	if need := nbits/8 + 16; len(w.out)-w.i < need {
		w.out = slices.Grow(w.out[:w.i], need)
		w.out = w.out[:cap(w.out)]
	}
	w.put(last|kind<<1, 3)
	if kind == 2 {
		w.put(uint64(nlit-257)|uint64(ndist-1)<<5|uint64(ncl-4)<<10, 14)
		for _, s := range clOrder[:ncl] {
			w.put(uint64(e.clLens[s]), 3)
		}
		canonical(e.clLens[:], e.clCodes[:])
		for _, r := range rle {
			c := e.clCodes[r&31]
			w.put(uint64(c&0xffff), uint(c>>16))
			w.put(uint64(r>>8), uint(rleExtra[r&31]))
		}
	}
	w.writeSeqs(src, start, e.seqs, lit, dist)
}

// writeSeqs writes seqs, whose literals start at src[p], and the end of
// block, in the codes lit and dist.
func (w *bitWriter) writeSeqs(src []byte, p int, seqs []seq, lit, dist []uint32) {
	out, i, b, nb := w.out, w.i, w.b, w.nb
	for _, q := range seqs {
		for _, c := range src[p : p+int(q.lits)] {
			v := lit[c]
			b |= uint64(v&0xffff) << nb
			nb += uint(v >> 16)
			if nb >= 48 {
				i, b, nb = flushBits(out, i, b, nb)
			}
		}
		p += int(q.lits)
		if q.length == 0 {
			continue
		}
		// A match takes at most 15+5+15+13 = 48 bits.
		i, b, nb = flushBits(out, i, b, nb)
		n, d := int(q.length), int(q.dist)
		ls := lenSymbol(n)
		v := lit[257+ls]
		b |= (uint64(v&0xffff) | uint64(n-int(lengthBase[ls]))<<(v>>16)) << nb
		nb += uint(v>>16) + uint(lengthExtra[ls])
		ds := distSymbol(d)
		v = dist[ds]
		b |= (uint64(v&0xffff) | uint64(d-int(distBase[ds]))<<(v>>16)) << nb
		nb += uint(v>>16) + uint(distExtra[ds])
		if nb >= 48 {
			i, b, nb = flushBits(out, i, b, nb)
		}
		p += n
	}
	w.i, w.b, w.nb = i, b, nb
	v := lit[256]
	w.put(uint64(v&0xffff), uint(v>>16))
}

// rleLengths run-length codes lens with the code-length symbols 0–18
// into e.rle, counting them in e.clFreq.
func (e *deflater) rleLengths(lens []uint8) []uint16 {
	rle := e.rle[:0]
	for i := 0; i < len(lens); {
		l, run := lens[i], 1
		for i+run < len(lens) && lens[i+run] == l {
			run++
		}
		i += run
		if l == 0 {
			for ; run >= 11; run -= min(run, 138) {
				rle = append(rle, 18|uint16(min(run, 138)-11)<<8)
			}
			if run >= 3 {
				rle, run = append(rle, 17|uint16(run-3)<<8), 0
			}
		} else {
			rle, run = append(rle, uint16(l)), run-1
			for ; run >= 3; run -= min(run, 6) {
				rle = append(rle, 16|uint16(min(run, 6)-3)<<8)
			}
		}
		for ; run > 0; run-- {
			rle = append(rle, uint16(l))
		}
	}
	clear(e.clFreq[:])
	for _, r := range rle {
		e.clFreq[r&31]++
	}
	return rle
}

// huffLengths sets lens to the lengths of a Huffman code for freq, which
// counts one symbol at least, no longer than maxBits and 0 for the
// symbols that do not occur: the Moffat–Katajainen in-place construction
// on the sorted frequencies, then the Kraft fix-up that pushes overlong
// codes back to maxBits (both as in miniz). It returns the count of
// symbols up to the last that occurs.
func (e *deflater) huffLengths(freq []uint32, lens []uint8, maxBits int) int {
	clear(lens)
	keys := e.keys[:0]
	for s, f := range freq {
		if f != 0 {
			keys = append(keys, f<<9|uint32(s))
		}
	}
	n, span := len(keys), int(keys[len(keys)-1]&511)+1
	if n == 1 {
		lens[keys[0]&511] = 1
		return span
	}
	slices.Sort(keys)
	a := e.weights[:n]
	for i, k := range keys {
		a[i] = k >> 9
	}
	// Build the tree in place: a[next] becomes an internal node's weight,
	// and a consumed node's slot its parent's index.
	a[0] += a[1]
	root, leaf := 0, 2
	for next := 1; next < n-1; next++ {
		if leaf >= n || a[root] < a[leaf] {
			a[next], a[root] = a[root], uint32(next)
			root++
		} else {
			a[next] = a[leaf]
			leaf++
		}
		if leaf >= n || (root < next && a[root] < a[leaf]) {
			a[next] += a[root]
			a[root] = uint32(next)
			root++
		} else {
			a[next] += a[leaf]
			leaf++
		}
	}
	// Parent indices to internal node depths, then to leaf depths.
	a[n-2] = 0
	for next := n - 3; next >= 0; next-- {
		a[next] = a[a[next]] + 1
	}
	avail, used, depth := 1, 0, uint32(0)
	for root, next := n-2, n-1; avail > 0; depth++ {
		for root >= 0 && a[root] == depth {
			used++
			root--
		}
		for ; avail > used; avail-- {
			a[next] = depth
			next--
		}
		avail, used = 2*used, 0
	}
	var count [33]int
	for _, d := range a {
		count[min(d, 32)]++
	}
	for d := maxBits + 1; d < len(count); d++ {
		count[maxBits] += count[d]
	}
	total := 0
	for d := 1; d <= maxBits; d++ {
		total += count[d] << (maxBits - d)
	}
	for ; total != 1<<maxBits; total-- {
		count[maxBits]--
		for d := maxBits - 1; d > 0; d-- {
			if count[d] != 0 {
				count[d]--
				count[d+1] += 2
				break
			}
		}
	}
	// The most frequent symbols take the shortest codes.
	j := n
	for d := 1; d <= maxBits; d++ {
		for c := count[d]; c > 0; c-- {
			j--
			lens[keys[j]&511] = uint8(d)
		}
	}
	return span
}

// canonical sets codes[s] to symbol s's canonical code, bit-reversed for
// writing lowest bit first, with its length in bits 16 and up; codes of
// symbols of length 0 are left as they were.
func canonical(lens []uint8, codes []uint32) {
	var count, next [16]uint32
	for _, l := range lens {
		if l != 0 { // most are 0 in a small block: skip the serial count[0]++
			count[l]++
		}
	}
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		if l != 0 {
			codes[s] = uint32(bits.Reverse16(uint16(next[l]))>>(16-l)) | uint32(l)<<16
			next[l]++
		}
	}
}
