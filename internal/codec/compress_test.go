package codec

// Tests for the pooled compression stage: state pool reuse under
// concurrency, the append-style compression path, buffer hygiene, the
// inflation limit and the steady state's allocations.

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"github.com/kompics/kompicsmessaging-go/internal/bufpool"
)

// TestFlateDecompressConcurrent hammers one Flate from many goroutines to
// verify the pooled decompress readers (and encoders) are not shared
// between in-flight calls. Run with -race to catch pool misuse.
func TestFlateDecompressConcurrent(t *testing.T) {
	c := NewFlate(-1)
	// Distinct, compressible inputs per goroutine so cross-talk between
	// pooled readers would corrupt an output visibly.
	inputs := make([][]byte, 8)
	packed := make([][]byte, len(inputs))
	for i := range inputs {
		inputs[i] = bytes.Repeat([]byte(fmt.Sprintf("payload-%d|", i)), 500)
		var err error
		packed[i], err = c.Compress(inputs[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < len(inputs); g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				out, err := c.Decompress(packed[g])
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(out, inputs[g]) {
					t.Errorf("goroutine %d: corrupted round trip", g)
					return
				}
				bufpool.Put(out)
			}
		}(g)
	}
	wg.Wait()
}

// TestFlateCompressConcurrent does the same for the pooled encoder path,
// interleaving Compress and Decompress.
func TestFlateCompressConcurrent(t *testing.T) {
	c := NewFlate(-1)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			in := bytes.Repeat([]byte{byte('a' + g)}, 4096)
			for i := 0; i < 200; i++ {
				packed, err := c.Compress(in)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				out, err := c.Decompress(packed)
				if err != nil {
					t.Errorf("goroutine %d: %v", g, err)
					return
				}
				if !bytes.Equal(out, in) {
					t.Errorf("goroutine %d: corrupted round trip", g)
					return
				}
				bufpool.Put(out)
			}
		}(g)
	}
	wg.Wait()
}

// TestFlateDecompressReaderReuse verifies sequential Decompress calls
// recycle the pooled reader and still produce independent results.
func TestFlateDecompressReaderReuse(t *testing.T) {
	c := NewFlate(-1)
	for i := 0; i < 50; i++ {
		in := bytes.Repeat([]byte{byte(i)}, 100+i)
		packed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decompress(packed)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, in) {
			t.Fatalf("round %d: corrupted round trip", i)
		}
		bufpool.Put(out)
	}
}

// TestAppendCompressPlacesBytesInDst verifies the hot-path contract: the
// compressed form lands directly after whatever dst already holds, so a
// flag byte needs no prepend copy.
func TestAppendCompressPlacesBytesInDst(t *testing.T) {
	c := NewFlate(-1)
	in := bytes.Repeat([]byte("abc"), 1000)
	dst := make([]byte, 1, 4096)
	dst[0] = 0xFE
	out, err := c.AppendCompress(dst, in)
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 0xFE {
		t.Fatalf("prefix byte clobbered: %#x", out[0])
	}
	if &out[0] != &dst[0] {
		t.Fatal("compressed output did not reuse dst's backing array")
	}
	round, err := c.Decompress(out[1:])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(round, in) {
		t.Fatal("corrupted round trip through AppendCompress")
	}
}

// TestAppendCompressGrowsDst checks the incompressible case where the
// output cannot fit dst's capacity and must reallocate like append.
func TestAppendCompressGrowsDst(t *testing.T) {
	c := NewFlate(-1)
	in := make([]byte, 32<<10)
	rand.New(rand.NewSource(7)).Read(in) // incompressible
	out, err := c.AppendCompress(make([]byte, 0, 8), in)
	if err != nil {
		t.Fatal(err)
	}
	round, err := c.Decompress(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(round, in) {
		t.Fatal("corrupted round trip after dst growth")
	}
}

// TestFlateDecompressRefusesInflationBomb feeds Decompress 64 MiB of
// zeros deflated to well under one frame: it must fail with
// ErrValueOutOfBounds, having buffered no more than about one frame
// limit of output rather than the whole inflated stream.
func TestFlateDecompressRefusesInflationBomb(t *testing.T) {
	var packed bytes.Buffer
	fw, err := flate.NewWriter(&packed, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 1<<20)
	for i := 0; i < 64; i++ {
		if _, err := fw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := fw.Close(); err != nil {
		t.Fatal(err)
	}
	if packed.Len() > DefaultMaxFrame {
		t.Fatalf("deflated bomb is %d bytes, want it to fit one frame", packed.Len())
	}

	c := NewFlate(-1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	out, err := c.Decompress(packed.Bytes())
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrValueOutOfBounds) {
		t.Fatalf("Decompress = %d bytes, err %v; want ErrValueOutOfBounds", len(out), err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 8*DefaultMaxFrame {
		t.Fatalf("Decompress allocated %d bytes for a refused payload, want < %d",
			grew, 8*DefaultMaxFrame)
	}
}

// TestFlateDecompressAtTheLimit pins the limit's edge: output of exactly
// DefaultMaxFrame bytes inflates, one byte more is refused.
func TestFlateDecompressAtTheLimit(t *testing.T) {
	c := NewFlate(flate.BestSpeed)
	for _, size := range []int{DefaultMaxFrame, DefaultMaxFrame + 1} {
		packed, err := c.Compress(make([]byte, size))
		if err != nil {
			t.Fatal(err)
		}
		out, err := c.Decompress(packed)
		switch {
		case size <= DefaultMaxFrame && (err != nil || len(out) != size):
			t.Fatalf("%d B: Decompress = %d B, %v; want all of it", size, len(out), err)
		case size > DefaultMaxFrame && !errors.Is(err, ErrValueOutOfBounds):
			t.Fatalf("%d B: Decompress = %d B, %v; want ErrValueOutOfBounds", size, len(out), err)
		}
	}
}

// wordText returns n bytes of Zipf-distributed pseudo-words (exponent 1.2
// over 2048 words of 2 to 12 letters), the shape of text the end-to-end
// benchmark compresses.
func wordText(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	const consonants, vowels = "bcdfghjklmnprstvw", "aeiou"
	words := make([][]byte, 2048)
	for i := range words {
		for s := 1 + rng.Intn(4); s > 0; s-- {
			words[i] = append(words[i], consonants[rng.Intn(len(consonants))], vowels[rng.Intn(len(vowels))])
			if rng.Intn(3) == 0 {
				words[i] = append(words[i], consonants[rng.Intn(len(consonants))])
			}
		}
	}
	zipf := rand.NewZipf(rng, 1.2, 1, uint64(len(words)-1))
	b := make([]byte, 0, n+16)
	for len(b) < n {
		b = append(append(b, words[zipf.Uint64()]...), ' ')
	}
	return b[:n]
}

// TestFlateInteropWithStdlib holds the codec to standard DEFLATE in both
// directions on inputs that reach each of the encoder's cases: empty and
// one-byte input, fixed and dynamic blocks, several blocks with matches
// across their boundaries, matches cut at 258 bytes, and incompressible
// input over more than one block. compress/flate must inflate
// what Compress writes, and Decompress what compress/flate writes at
// every level.
func TestFlateInteropWithStdlib(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	random := make([]byte, 70<<10)
	rng.Read(random)
	inputs := map[string][]byte{
		"empty":                {},
		"one byte":             {'k'},
		"short text":           []byte("ping ping ping ping"),
		"words 1 KiB":          wordText(2, 1<<10),
		"words 200 KiB":        wordText(3, 200<<10),
		"zeros 300 KiB":        make([]byte, 300<<10),
		"random 70 KiB":        random,
		"words, random, words": append(append(wordText(4, 40<<10), random[:40<<10]...), wordText(4, 40<<10)...),
	}
	c := NewFlate(-1)
	for name, in := range inputs {
		packed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if out, ok := stdlibInflate(packed); !ok || !bytes.Equal(out, in) {
			t.Errorf("%s: compress/flate did not inflate Compress's %d B back to the input", name, len(packed))
		}
		for _, level := range []int{flate.HuffmanOnly, flate.NoCompression, flate.BestSpeed, 6, flate.BestCompression} {
			var std bytes.Buffer
			fw, err := flate.NewWriter(&std, level)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fw.Write(in); err != nil {
				t.Fatal(err)
			}
			if err := fw.Close(); err != nil {
				t.Fatal(err)
			}
			out, err := c.Decompress(std.Bytes())
			if err != nil || !bytes.Equal(out, in) {
				t.Errorf("%s: Decompress of compress/flate's level %d stream: %d B, %v", name, level, len(out), err)
			}
			bufpool.Put(out)
		}
	}
}

// TestFlateLevelSelectsNothing pins that NewFlate's level chooses no
// encoder: the default, compress/flate's levels and an out-of-range value
// all write the same stream.
func TestFlateLevelSelectsNothing(t *testing.T) {
	in := wordText(1, 64<<10)
	want, err := NewFlate(flate.DefaultCompression).Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{flate.HuffmanOnly, flate.BestSpeed, 6, flate.BestCompression, 1000} {
		got, err := NewFlate(level).Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("NewFlate(%d) wrote %d B, unlike the default's %d B", level, len(got), len(want))
		}
	}
}

// TestFlateAllocationFree pins Flate's steady state: with its pools warm,
// AppendCompress into a dst with room, and Decompress with its output
// handed back to bufpool, allocate nothing, for a control-sized and a
// bulk-sized message.
func TestFlateAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	c := NewFlate(-1)
	for _, n := range []int{64, 64 << 10} {
		in := wordText(1, n)
		dst := make([]byte, 0, 2*n+64)
		packed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(50, func() { _, _ = c.AppendCompress(dst[:0], in) }); a != 0 {
			t.Errorf("%d B: AppendCompress allocates %.1f times per call", n, a)
		}
		if a := testing.AllocsPerRun(50, func() {
			out, err := c.Decompress(packed)
			if err != nil {
				t.Fatal(err)
			}
			bufpool.Put(out)
		}); a != 0 {
			t.Errorf("%d B: Decompress allocates %.1f times per call", n, a)
		}
	}
}

// TestFlateRatioOnWordText is a floor under the default's ratio on word
// text, so a later default that gives the ratio up shows here.
func TestFlateRatioOnWordText(t *testing.T) {
	c := NewFlate(flate.DefaultCompression)
	for seed := int64(1); seed <= 3; seed++ {
		in := wordText(seed, 64<<10)
		packed, err := c.Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if ratio := float64(len(in)) / float64(len(packed)); ratio < 2.5 {
			t.Fatalf("seed %d: ratio %.2f:1 on 64 KiB of word text, want ≥ 2.5:1", seed, ratio)
		}
	}
}
