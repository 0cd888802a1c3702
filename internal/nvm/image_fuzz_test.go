package nvm

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// FuzzLoadImage treats LoadImage's input as hostile:
//
//	go test -run=NONE -fuzz=FuzzLoadImage -fuzztime=30s ./internal/nvm
//
// The oracle has two parts. LoadImage on arbitrary bytes returns an
// error or a device and never panics (a panic fails the fuzz input).
// When it returns a device, saving it, loading that image back and
// saving again yields the identical bytes — the loader accepts nothing
// Save cannot reproduce. The corpus seeds a real saved image, a
// truncated one and the four hostile-geometry headers of
// TestLoadImageRejectsHostileGeometry.
func FuzzLoadImage(f *testing.F) {
	d := New(1<<20, 128)
	for i := int64(0); i < 20; i++ {
		blk := bytes.Repeat([]byte{byte(i + 1)}, 128)
		d.WriteBlock(i*7*128, blk)
	}
	var buf bytes.Buffer
	if err := d.Save(&buf); err != nil {
		f.Fatal(err)
	}
	img := buf.Bytes()
	f.Add(img)
	f.Add(img[:len(img)-77])
	for _, g := range []struct {
		blockSize uint32
		capacity  uint64
	}{
		{128, 1 << 52},
		{128, uint64(MaxCapacity) + 128},
		{1 << 30, 1 << 30},
		{512, 1 << 20},
	} {
		raw := bytes.Clone(img)
		binary.LittleEndian.PutUint32(raw[12:16], g.blockSize)
		binary.LittleEndian.PutUint64(raw[16:24], g.capacity)
		f.Add(raw)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		dev, err := LoadImage(bytes.NewReader(data))
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := dev.Save(&first); err != nil {
			t.Fatalf("save of a loaded image: %v", err)
		}
		again, err := LoadImage(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("reload of a saved image: %v", err)
		}
		var second bytes.Buffer
		if err := again.Save(&second); err != nil {
			t.Fatalf("second save: %v", err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatal("Save -> LoadImage -> Save is not byte-stable")
		}
	})
}
