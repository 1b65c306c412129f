package codec

// Tests for the pooled compression stage: reader/writer pool reuse under
// concurrency, the append-style compression path, and buffer hygiene.

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

// TestFlateDefaultIsBestSpeed pins what the default level means: the
// default, an out-of-range level and flate.BestSpeed write the same
// stream.
func TestFlateDefaultIsBestSpeed(t *testing.T) {
	in := wordText(1, 64<<10)
	want, err := NewFlate(flate.BestSpeed).Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, level := range []int{flate.DefaultCompression, 1000, flate.HuffmanOnly - 1} {
		got, err := NewFlate(level).Compress(in)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("NewFlate(%d) wrote %d B, unlike BestSpeed's %d B", level, len(got), len(want))
		}
	}
	// An explicit level is still honoured.
	six, err := NewFlate(6).Compress(in)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(six, want) {
		t.Fatal("NewFlate(6) wrote BestSpeed's stream")
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
