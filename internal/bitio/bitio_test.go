package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadBit(t *testing.T) {
	w := NewWriter(4)
	bits := []uint{1, 0, 1, 1, 0, 0, 1, 0, 1, 1, 1}
	for _, b := range bits {
		w.WriteBit(b)
	}
	r := NewReader(w.Bytes())
	for i, want := range bits {
		got, err := r.ReadBit()
		if err != nil {
			t.Fatalf("bit %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("bit %d: got %d want %d", i, got, want)
		}
	}
}

func TestWriteBitsRoundTrip(t *testing.T) {
	cases := []struct {
		v uint64
		n uint
	}{
		{0, 1}, {1, 1}, {0b101, 3}, {0xFF, 8}, {0x1234, 16},
		{0xDEADBEEF, 32}, {0xFFFFFFFFFFFFFFFF, 64}, {42, 7}, {0, 64},
	}
	w := NewWriter(64)
	for _, c := range cases {
		w.WriteBits(c.v, c.n)
	}
	r := NewReader(w.Bytes())
	for i, c := range cases {
		got, err := r.ReadBits(c.n)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got != c.v {
			t.Fatalf("case %d: got %#x want %#x", i, got, c.v)
		}
	}
}

func TestWriteBitsZeroWidth(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(123, 0) // no-op
	w.WriteBits(1, 1)
	if w.BitLen() != 1 {
		t.Fatalf("BitLen = %d, want 1", w.BitLen())
	}
}

func TestBitLen(t *testing.T) {
	w := NewWriter(8)
	if w.BitLen() != 0 {
		t.Fatalf("empty BitLen = %d", w.BitLen())
	}
	w.WriteBits(0, 13)
	if w.BitLen() != 13 {
		t.Fatalf("BitLen = %d, want 13", w.BitLen())
	}
	w.WriteBits(0, 3)
	if w.BitLen() != 16 {
		t.Fatalf("BitLen = %d, want 16", w.BitLen())
	}
}

func TestAlign(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0b101, 3)
	w.Align()
	w.WriteBits(0xFF, 8)
	r := NewReader(w.Bytes())
	v, _ := r.ReadBits(3)
	if v != 0b101 {
		t.Fatalf("prefix = %b", v)
	}
	r.Align()
	v, _ = r.ReadBits(8)
	if v != 0xFF {
		t.Fatalf("aligned byte = %#x", v)
	}
}

func TestShortBuffer(t *testing.T) {
	r := NewReader([]byte{0xFF})
	if _, err := r.ReadBits(16); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
	r2 := NewReader(nil)
	if _, err := r2.ReadBit(); err != ErrShortBuffer {
		t.Fatalf("err = %v, want ErrShortBuffer", err)
	}
}

func TestRemaining(t *testing.T) {
	r := NewReader([]byte{0, 0})
	if r.Remaining() != 16 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
	r.ReadBits(5)
	if r.Remaining() != 11 {
		t.Fatalf("Remaining = %d", r.Remaining())
	}
}

func TestReset(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xFFFF, 16)
	w.Reset()
	if w.BitLen() != 0 || len(w.Bytes()) != 0 {
		t.Fatal("Reset did not clear writer")
	}
	w.WriteBits(3, 2)
	if w.BitLen() != 2 {
		t.Fatalf("BitLen after reset = %d", w.BitLen())
	}
}

// Property: any sequence of (value, width) writes reads back identically.
func TestQuickRoundTrip(t *testing.T) {
	f := func(vals []uint64, widthSeed int64) bool {
		rng := rand.New(rand.NewSource(widthSeed))
		widths := make([]uint, len(vals))
		masked := make([]uint64, len(vals))
		w := NewWriter(len(vals) * 8)
		for i, v := range vals {
			n := uint(rng.Intn(64) + 1)
			widths[i] = n
			if n < 64 {
				v &= (1 << n) - 1
			}
			masked[i] = v
			w.WriteBits(v, n)
		}
		r := NewReader(w.Bytes())
		for i := range vals {
			got, err := r.ReadBits(widths[i])
			if err != nil || got != masked[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if i&8191 == 0 {
			w.Reset()
		}
		w.WriteBits(uint64(i), 23)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 8192; i++ {
		w.WriteBits(uint64(i), 23)
	}
	buf := w.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	r := NewReader(buf)
	for i := 0; i < b.N; i++ {
		if r.Remaining() < 23 {
			r = NewReader(buf)
		}
		r.ReadBits(23)
	}
}
