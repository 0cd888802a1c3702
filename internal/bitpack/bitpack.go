// Package bitpack reads and writes arbitrary-width bit fields in byte
// slices. The Thoth design packs structures tighter than byte
// granularity: 7-bit minor counters inside counter blocks and 105-bit
// partial-update entries inside PUB blocks (Section IV-A), so both
// codecs are built on this package.
//
// Bit offsets are little-endian within the slice: bit i lives in byte
// i/8 at position i%8, matching how successive fields pack contiguously.
//
// Fields move a 64-bit word at a time. Get loads the little-endian word
// at byte off/8, shifts it right by off%8 and masks it to the width;
// when off%8+width exceeds 64 the field spills into a ninth byte, whose
// low bits are ORed in above the word. Set is the mirror image: a masked
// read-modify-write of the same word (and ninth byte) that touches no
// bit outside [off, off+width). A field starting in the last 7 bytes of
// the slice has no full word to load, so it takes a short tail path
// that copies the remaining bytes through an 8-byte buffer.
package bitpack

import (
	"encoding/binary"
	"fmt"
)

// Get extracts width bits (1..64) starting at bit offset off.
func Get(b []byte, off, width int) uint64 {
	check(b, off, width)
	i, s := off>>3, uint(off&7)
	if i+8 > len(b) {
		var w [8]byte
		copy(w[:], b[i:])
		return binary.LittleEndian.Uint64(w[:]) >> s & mask(width)
	}
	v := binary.LittleEndian.Uint64(b[i:]) >> s
	if int(s)+width > 64 {
		v |= uint64(b[i+8]) << (64 - s)
	}
	return v & mask(width)
}

// Set stores the low width bits of v (1..64) starting at bit offset off.
// Bits of v above width must be zero.
func Set(b []byte, off, width int, v uint64) {
	check(b, off, width)
	if width < 64 && v>>width != 0 {
		panic(fmt.Sprintf("bitpack: value %#x exceeds %d bits", v, width))
	}
	i, s := off>>3, uint(off&7)
	m := mask(width)
	if i+8 > len(b) {
		var w [8]byte
		copy(w[:], b[i:])
		x := binary.LittleEndian.Uint64(w[:])
		binary.LittleEndian.PutUint64(w[:], x&^(m<<s)|v<<s)
		copy(b[i:], w[:])
		return
	}
	x := binary.LittleEndian.Uint64(b[i:])
	binary.LittleEndian.PutUint64(b[i:], x&^(m<<s)|v<<s)
	if int(s)+width > 64 {
		// The top s+width-64 bits of the field live in the ninth byte.
		hi := 64 - s
		b[i+8] = b[i+8]&^byte(m>>hi) | byte(v>>hi)
	}
}

// mask returns a word with the low width (1..64) bits set.
func mask(width int) uint64 {
	return ^uint64(0) >> (64 - uint(width))
}

func check(b []byte, off, width int) {
	if width < 1 || width > 64 {
		panic(fmt.Sprintf("bitpack: width %d out of range [1,64]", width))
	}
	if off < 0 || off+width > len(b)*8 {
		panic(fmt.Sprintf("bitpack: field [%d,+%d) exceeds %d bits", off, width, len(b)*8))
	}
}
