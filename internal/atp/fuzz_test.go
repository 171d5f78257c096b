package atp

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
)

// FuzzDecode throws at both flavours' decoders what any host may POST to
// /atp/transfer: real envelopes, their truncations and byte flips. No
// input panics or allocates more than allocBound of its length, and an
// image a decoder accepts re-encodes in the same flavour to an envelope
// that decodes to the same image.
func FuzzDecode(f *testing.F) {
	im := realImage(f)
	for _, c := range codecs() {
		good, err := c.Encode(im)
		if err != nil {
			f.Fatal(err)
		}
		voyager := c.Name() == "voyager"
		f.Add(voyager, good)
		for _, cut := range []int{len(good) - 1, len(good) / 2, len(agletsMagic) + 2} {
			f.Add(voyager, good[:cut])
		}
		for _, at := range []int{len(agletsMagic) + 3, len(good) / 3, len(good) - 2} {
			flipped := append([]byte(nil), good...)
			flipped[at] ^= 0x41
			f.Add(voyager, flipped)
		}
	}
	f.Fuzz(func(t *testing.T, voyager bool, data []byte) {
		var c Codec = AgletsCodec{}
		if voyager {
			c = VoyagerCodec{}
		}
		var got *Image
		var err error
		if n, limit := allocated(func() { got, err = c.Decode(data) }), allocBound(len(data)); n > limit {
			t.Fatalf("%s: decoding %d bytes allocated %d, bound %d", c.Name(), len(data), n, limit)
		}
		if err != nil {
			return
		}
		again, err := c.Encode(got)
		if err != nil {
			t.Fatalf("%s: accepted image does not re-encode: %v", c.Name(), err)
		}
		back, err := c.Decode(again)
		if err != nil {
			t.Fatalf("%s: re-encoded image does not decode: %v", c.Name(), err)
		}
		if !reflect.DeepEqual(back, got) {
			t.Fatalf("%s: image changed over a re-encode:\n got %+v\nback %+v", c.Name(), got, back)
		}
	})
}

// allocBound is what a decoder may allocate for an n-byte envelope. The
// voyager flavour pull-parses: a payload's text and its base64 decoding
// are the costliest bytes, under 2 B per byte.
func allocBound(n int) uint64 { return 64<<10 + 32*uint64(n) }

// allocated is the heap f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestVoyagerDecodeAllocsPerByte: a 1 MiB envelope decodes for little
// more than its payload, and a 1 MiB body of text alternating with empty
// elements — a node tree cost ≈ 70 B per byte of it — is refused before
// it costs 1 B per byte.
func TestVoyagerDecodeAllocsPerByte(t *testing.T) {
	const size = 1 << 20
	im := realImage(t)
	im.Program = bytes.Repeat([]byte{0xa5}, size*3/4-1024)
	good, err := VoyagerCodec{}.Encode(im)
	if err != nil {
		t.Fatal(err)
	}
	hostile := []byte(`<?xml version="1.0" encoding="UTF-8"?><voyager-agent id="ag" home="gw" code-id="c" owner="o">`)
	for len(hostile) < size {
		hostile = append(hostile, "t<e/>"...)
	}
	hostile = append(hostile, "</voyager-agent>"...)
	for _, c := range []struct {
		name  string
		body  []byte
		ok    bool
		bound float64
	}{{"envelope", good, true, 2.5}, {"text and empty elements", hostile, false, 1}} {
		var err error
		n := allocated(func() { _, err = VoyagerCodec{}.Decode(c.body) })
		perByte := float64(n) / float64(len(c.body))
		t.Logf("%s: %.2f B allocated per byte", c.name, perByte)
		if (err == nil) != c.ok || perByte > c.bound {
			t.Errorf("%s: %d B allocated for %d B (%.2f B per byte, bound %.1f), err %v", c.name, n, len(c.body), perByte, c.bound, err)
		}
	}
}
