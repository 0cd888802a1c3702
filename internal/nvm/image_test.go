package nvm

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestImageRoundTrip(t *testing.T) {
	d := New(1<<20, 128)
	for i := int64(0); i < 50; i++ {
		blk := make([]byte, 128)
		blk[0] = byte(i)
		blk[127] = byte(i) ^ 0xFF
		d.WriteBlock(i*128*3%(1<<20-128)/128*128, blk)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadImage(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Equal(got) {
		t.Fatal("image round trip lost contents")
	}
	if got.BlockSize() != 128 || got.Capacity() != 1<<20 {
		t.Fatal("geometry lost")
	}
}

func TestLoadImageRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		bytes.Repeat([]byte{0}, 64), // bad magic
	}
	for i, c := range cases {
		if _, err := LoadImage(bytes.NewReader(c)); err == nil {
			t.Errorf("case %d: garbage image accepted", i)
		}
	}
}

func TestLoadImageRejectsBadGeometry(t *testing.T) {
	d := New(1<<20, 128)
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[12] = 0 // zero block size
	raw[13] = 0
	if _, err := LoadImage(bytes.NewReader(raw)); err == nil {
		t.Fatal("bad geometry accepted")
	}
}

// TestLoadImageRejectsHostileGeometry pins that a header claiming an
// unsupported block size or an oversized capacity is refused before any
// allocation sized by it: either would otherwise allocate gigabytes or
// exhaust memory outright.
func TestLoadImageRejectsHostileGeometry(t *testing.T) {
	for _, tc := range []struct {
		name      string
		blockSize uint32
		capacity  uint64
	}{
		{"huge capacity", 128, 1 << 52},
		{"capacity just over bound", 128, uint64(MaxCapacity) + 128},
		{"huge block size", 1 << 30, 1 << 30},
		{"unsupported block size", 512, 1 << 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := New(1<<20, 128).Save(&buf); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			binary.LittleEndian.PutUint32(raw[12:16], tc.blockSize)
			binary.LittleEndian.PutUint64(raw[16:24], tc.capacity)
			if _, err := LoadImage(bytes.NewReader(raw)); err == nil {
				t.Fatalf("block=%d cap=%d accepted", tc.blockSize, tc.capacity)
			}
		})
	}
}

// Property: save/load round-trips arbitrary block contents.
func TestImageRoundTripProperty(t *testing.T) {
	f := func(writes []struct {
		Slot uint8
		Tag  byte
	}) bool {
		d := New(64*256, 64)
		for _, w := range writes {
			blk := make([]byte, 64)
			for i := range blk {
				blk[i] = w.Tag + byte(i)
			}
			d.WriteBlock(int64(w.Slot)*64, blk)
		}
		var buf bytes.Buffer
		if d.Save(&buf) != nil {
			return false
		}
		got, err := LoadImage(&buf)
		return err == nil && d.Equal(got)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
