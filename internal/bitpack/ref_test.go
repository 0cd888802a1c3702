package bitpack

import (
	"bytes"
	"math/rand"
	"testing"
)

// getRef is the bit-at-a-time reference codec: one loop iteration per
// bit, no word tricks. The word-wise Get must agree with it everywhere.
func getRef(b []byte, off, width int) uint64 {
	check(b, off, width)
	var v uint64
	for i := 0; i < width; i++ {
		bit := off + i
		if b[bit/8]&(1<<(bit%8)) != 0 {
			v |= 1 << i
		}
	}
	return v
}

// setRef is the bit-at-a-time reference for Set.
func setRef(b []byte, off, width int, v uint64) {
	check(b, off, width)
	for i := 0; i < width; i++ {
		bit := off + i
		mask := byte(1 << (bit % 8))
		if v&(1<<i) != 0 {
			b[bit/8] |= mask
		} else {
			b[bit/8] &^= mask
		}
	}
}

// fieldValue truncates r to width bits.
func fieldValue(r uint64, width int) uint64 {
	if width < 64 {
		return r & (1<<width - 1)
	}
	return r
}

// diffOne checks Get and Set at (off, width) on background bg against
// the reference codec. Set compares whole slices, so a single bit
// written outside [off, off+width) fails it.
func diffOne(t *testing.T, bg []byte, off, width int, v uint64) {
	t.Helper()
	if got, want := Get(bg, off, width), getRef(bg, off, width); got != want {
		t.Fatalf("len=%d off=%d width=%d: Get = %#x, reference %#x", len(bg), off, width, got, want)
	}
	got := bytes.Clone(bg)
	want := bytes.Clone(bg)
	Set(got, off, width, v)
	setRef(want, off, width, v)
	if !bytes.Equal(got, want) {
		t.Fatalf("len=%d off=%d width=%d v=%#x: Set wrote\n%x\nreference\n%x", len(bg), off, width, v, got, want)
	}
	if r := Get(got, off, width); r != v {
		t.Fatalf("len=%d off=%d width=%d: round trip %#x -> %#x", len(bg), off, width, v, r)
	}
}

// TestDifferentialExhaustive compares the word-wise codec with the
// bit-at-a-time reference on every slice length from 1 to 24 bytes,
// every offset and every width that fits, with a random value on a
// random background.
func TestDifferentialExhaustive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 1; n <= 24; n++ {
		bg := make([]byte, n)
		for off := 0; off < n*8; off++ {
			for width := 1; width <= 64 && off+width <= n*8; width++ {
				rng.Read(bg)
				diffOne(t, bg, off, width, fieldValue(rng.Uint64(), width))
			}
		}
	}
}

// TestTailPathFields drives every field that ends inside the last 7
// bytes of the slice. Those starting there have no whole 8-byte word at
// off/8 and take the byte-wise tail path; the rest are word loads whose
// word or ninth byte is the slice's last.
func TestTailPathFields(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for n := 1; n <= 24; n++ {
		bg := make([]byte, n)
		tailStart := max(0, n-7) * 8
		for off := 0; off < n*8; off++ {
			for width := max(1, tailStart-off+1); width <= 64 && off+width <= n*8; width++ {
				for _, fill := range []byte{0x00, 0xFF} {
					for i := range bg {
						bg[i] = fill
					}
					diffOne(t, bg, off, width, fieldValue(rng.Uint64(), width))
					diffOne(t, bg, off, width, fieldValue(^uint64(0), width))
					diffOne(t, bg, off, width, 0)
				}
			}
		}
	}
}

// TestNineByteFields drives 64-bit fields at every non-zero bit phase:
// they span nine bytes, the eighth-byte word plus a spill byte.
func TestNineByteFields(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 9; n <= 24; n++ {
		bg := make([]byte, n)
		for off := 1; off+64 <= n*8; off++ {
			if off%8 == 0 {
				continue
			}
			for _, fill := range []byte{0x00, 0xFF, 0xA5} {
				for i := range bg {
					bg[i] = fill
				}
				diffOne(t, bg, off, 64, rng.Uint64())
				diffOne(t, bg, off, 64, ^uint64(0))
				diffOne(t, bg, off, 64, 0)
			}
		}
	}
}

// FuzzGetSet checks the word-wise codec against the reference on
// fuzzer-chosen slices, fields and values. The field is folded into the
// slice so every input is a valid call.
func FuzzGetSet(f *testing.F) {
	f.Add([]byte{0xFF}, uint16(0), uint8(1), uint64(0))
	f.Add(make([]byte, 16), uint16(3), uint8(13), uint64(0x1ABC))
	f.Add(bytes.Repeat([]byte{0xA5}, 17), uint16(23), uint8(64), uint64(0xDEADBEEFCAFEF00D))
	f.Add(bytes.Repeat([]byte{0x5A}, 128), uint16(945), uint8(7), uint64(0x7F))
	f.Add(bytes.Repeat([]byte{0xFF}, 128), uint16(1016), uint8(7), uint64(0))
	f.Fuzz(func(t *testing.T, b []byte, off uint16, width uint8, v uint64) {
		if len(b) == 0 {
			return
		}
		bits := len(b) * 8
		w := int(width)%min(64, bits) + 1
		o := int(off) % (bits - w + 1)
		diffOne(t, b, o, w, fieldValue(v, w))
	})
}
