package bufpool

import (
	"sync"
	"testing"
)

func TestGetLengthAndCapacity(t *testing.T) {
	cases := []struct{ n, wantCap int }{
		{0, 1 << minShift},
		{1, 1 << minShift},
		{512, 512},
		{513, 1024},
		{64 << 10, 64 << 10},
		{(64 << 10) + 1, 128 << 10},
		{1 << maxShift, 1 << maxShift},
	}
	for _, c := range cases {
		b := Get(c.n)
		if len(b) != c.n {
			t.Errorf("Get(%d): len = %d", c.n, len(b))
		}
		if cap(b) != c.wantCap {
			t.Errorf("Get(%d): cap = %d, want %d", c.n, cap(b), c.wantCap)
		}
		Put(b)
	}
}

func TestOversizedBypassesPool(t *testing.T) {
	n := (1 << maxShift) + 1
	b := Get(n)
	if len(b) != n {
		t.Fatalf("len = %d", len(b))
	}
	Put(b) // must not panic; silently dropped
}

func TestReuseWithinClass(t *testing.T) {
	// A buffer Put back should be handed out again for a same-class Get.
	// sync.Pool may drop entries under GC pressure, so retry a few times
	// rather than asserting a single round trip.
	reused := false
	for i := 0; i < 100 && !reused; i++ {
		b := Get(1000)
		b[0] = 0x42
		Put(b)
		c := Get(900)
		reused = &c[:1][0] == &b[:1][0]
		Put(c)
	}
	if !reused {
		t.Error("no buffer reuse observed in 100 rounds")
	}
}

func TestPutForeignSlice(t *testing.T) {
	// Odd-capacity slices from plain make are accepted into the class
	// that fits below their capacity, and must still satisfy Gets.
	Put(make([]byte, 700)) // cap 700 -> class 512
	b := Get(512)
	if cap(b) < 512 {
		t.Fatalf("cap = %d", cap(b))
	}
	Put(b)
	Put(make([]byte, 10)) // below the smallest class: dropped, no panic
}

func TestLeakAccounting(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	ResetStats()
	var bufs [][]byte
	for i := 0; i < 10; i++ {
		bufs = append(bufs, Get(1024))
	}
	bb := GetBuffer()
	if got := Outstanding(); got != 11 {
		t.Fatalf("Outstanding = %d, want 11", got)
	}
	for _, b := range bufs {
		Put(b)
	}
	PutBuffer(bb)
	if got := Outstanding(); got != 0 {
		t.Fatalf("Outstanding = %d, want 0 after full cycle", got)
	}
}

func TestPoisonOnPut(t *testing.T) {
	SetDebug(true)
	defer SetDebug(false)
	b := Get(64)
	for i := range b {
		b[i] = 1
	}
	saved := b
	Put(b)
	for i, v := range saved {
		if v != 0xA5 {
			t.Fatalf("byte %d = %#x, want poison 0xA5", i, v)
		}
	}
	// Capacities that are not powers of two end the doubling mid-copy.
	for _, c := range []int{1, 2, 3, 7, 64, 1000, 1 << 20} {
		b := make([]byte, 1, c)
		poison(b)
		for i, v := range b[:c] {
			if v != 0xA5 {
				t.Fatalf("capacity %d: byte %d = %#x, want poison 0xA5", c, i, v)
			}
		}
	}
}

func TestBufferRoundTrip(t *testing.T) {
	bb := GetBuffer()
	bb.WriteString("hello")
	PutBuffer(bb)
	bb2 := GetBuffer()
	if bb2.Len() != 0 {
		t.Fatalf("recycled buffer not reset: %d bytes", bb2.Len())
	}
	PutBuffer(bb2)
}

func TestConcurrentGetPut(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				n := (seed*31+i*17)%(128<<10) + 1
				b := Get(n)
				if len(b) != n {
					t.Errorf("len = %d, want %d", len(b), n)
					Put(b)
					return
				}
				b[0], b[n-1] = 1, 2
				Put(b)
			}
		}(g)
	}
	wg.Wait()
}

// classAccountFor digs the accounting slot for a class size out of a
// snapshot (0 = unpooled).
func classAccountFor(t *testing.T, a Accounting, size int) ClassAccount {
	t.Helper()
	for _, c := range a.Classes {
		if c.Size == size {
			return c
		}
	}
	t.Fatalf("no accounting slot for class size %d", size)
	return ClassAccount{}
}

func TestAccountPerClassDeltas(t *testing.T) {
	before := Account()
	held := [][]byte{Get(1024), Get(1024), Get(4096)}
	oversize := Get((1 << maxShift) + 1)
	bb := GetBuffer()

	mid := Account()
	if d := mid.Outstanding - before.Outstanding; d != 5 {
		t.Fatalf("outstanding delta = %d, want 5", d)
	}
	if d := classAccountFor(t, mid, 1024).Outstanding - classAccountFor(t, before, 1024).Outstanding; d != 2 {
		t.Fatalf("1 KiB class delta = %d, want 2", d)
	}
	if d := classAccountFor(t, mid, 4096).Outstanding - classAccountFor(t, before, 4096).Outstanding; d != 1 {
		t.Fatalf("4 KiB class delta = %d, want 1", d)
	}
	if d := classAccountFor(t, mid, 0).Outstanding - classAccountFor(t, before, 0).Outstanding; d != 1 {
		t.Fatalf("unpooled delta = %d, want 1", d)
	}
	if d := mid.Buffers.Outstanding - before.Buffers.Outstanding; d != 1 {
		t.Fatalf("bytes.Buffer delta = %d, want 1", d)
	}

	for _, b := range held {
		Put(b)
	}
	Put(oversize)
	PutBuffer(bb)
	after := Account()
	if d := after.Outstanding - before.Outstanding; d != 0 {
		t.Fatalf("outstanding delta after full cycle = %d, want 0", d)
	}
}

// TestAccountWithoutDebugMode pins the satellite requirement: accounting
// works with debug mode off (the soak harness never enables poisoning).
func TestAccountWithoutDebugMode(t *testing.T) {
	SetDebug(false)
	before := Account()
	b := Get(2048)
	if d := Account().Outstanding - before.Outstanding; d != 1 {
		t.Fatalf("delta with debug off = %d, want 1", d)
	}
	Put(b)
	if d := Account().Outstanding - before.Outstanding; d != 0 {
		t.Fatalf("delta after Put = %d, want 0", d)
	}
}

func TestAccountConcurrent(t *testing.T) {
	before := Account()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := Get((seed*13+i*7)%(32<<10) + 1)
				Put(b)
			}
		}(g)
	}
	wg.Wait()
	if d := Account().Outstanding - before.Outstanding; d != 0 {
		t.Fatalf("outstanding delta after balanced concurrent cycles = %d, want 0", d)
	}
}

func BenchmarkGetPut(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf := Get(64 << 10)
		Put(buf)
	}
}
