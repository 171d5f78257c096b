package atp

import (
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
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := c.Decode(data)
		runtime.ReadMemStats(&after)
		if n, limit := after.TotalAlloc-before.TotalAlloc, allocBound(len(data)); n > limit {
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
// voyager flavour's XML node tree is the costliest per byte: a body of
// alternating text and empty elements takes about 63 B per byte.
func allocBound(n int) uint64 { return 64<<10 + 256*uint64(n) }
