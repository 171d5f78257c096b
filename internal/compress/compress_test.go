package compress

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
)

var allCodecs = []Codec{None, LZSS, Flate}

func TestRoundTripBasic(t *testing.T) {
	samples := [][]byte{
		nil,
		[]byte(""),
		[]byte("a"),
		[]byte("hello hello hello hello hello"),
		[]byte(strings.Repeat("transaction ", 200)),
		bytes.Repeat([]byte{0}, 5000),
		[]byte("<pi id=\"1\"><code>let x = migrate(\"bank-a\")</code></pi>"),
	}
	for _, codec := range allCodecs {
		for i, data := range samples {
			enc, err := Encode(codec, data)
			if err != nil {
				t.Fatalf("%v sample %d: Encode: %v", codec, i, err)
			}
			dec, err := Decode(enc)
			if err != nil {
				t.Fatalf("%v sample %d: Decode: %v", codec, i, err)
			}
			if !bytes.Equal(dec, data) {
				t.Fatalf("%v sample %d: round-trip mismatch: %d bytes in, %d out", codec, i, len(data), len(dec))
			}
			got, err := FrameCodec(enc)
			if err != nil || got != codec {
				t.Fatalf("FrameCodec = %v, %v", got, err)
			}
		}
	}
}

func TestCompressionActuallyCompresses(t *testing.T) {
	// Repetitive XML, the dominant payload in this system.
	doc := []byte(strings.Repeat(`<transaction from="bank-a" to="bank-b" amount="100"/>`, 100))
	for _, codec := range []Codec{LZSS, Flate} {
		enc, err := Encode(codec, doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(enc) >= len(doc)/2 {
			t.Errorf("%v: %d -> %d bytes, expected at least 2x reduction", codec, len(doc), len(enc))
		}
	}
}

func TestRatio(t *testing.T) {
	doc := []byte(strings.Repeat("abcdefgh", 512))
	if r := Ratio(LZSS, doc); r >= 1 {
		t.Errorf("LZSS ratio on repetitive input = %f", r)
	}
	if r := Ratio(None, doc); r <= 1 || r > 1.01 {
		t.Errorf("None ratio = %f, want slightly over 1 (frame overhead)", r)
	}
	if r := Ratio(LZSS, nil); r != 1.0 {
		t.Errorf("empty ratio = %f", r)
	}
}

func TestDecodeErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":          {},
		"short":          {frameMagic},
		"bad magic":      {'X', byte(LZSS), 4, 1, 2, 3, 4},
		"unknown codec":  {frameMagic, 99, 1, 0},
		"huge size":      append([]byte{frameMagic, byte(None)}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01),
		"identity short": {frameMagic, byte(None), 5, 1, 2},
	}
	for name, frame := range cases {
		if _, err := Decode(frame); err == nil {
			t.Errorf("%s: Decode succeeded, want error", name)
		}
	}
}

// allocatedBy reports the bytes the heap handed out while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestMaxDecodedSizeBound sits on the decoded-size bound: a header
// declaring exactly MaxDecodedSize passes the header check and one
// declaring a byte more is refused with ErrCorrupt. Neither that nor a
// short frame claiming the whole bound — more than its payload can
// decode to, for either compressing codec — allocates anything near the
// size it declares, while the densest stream each encoder writes still
// decodes.
func TestMaxDecodedSizeBound(t *testing.T) {
	frame := func(codec Codec, size uint64) []byte {
		return append(binary.AppendUvarint([]byte{frameMagic, byte(codec)}, size), 0xFF, 'p', 'a', 'y', 'l', 'o', 'a', 'd', '!')
	}
	if c, err := FrameCodec(frame(LZSS, MaxDecodedSize)); err != nil || c != LZSS {
		t.Fatalf("a frame declaring MaxDecodedSize: FrameCodec = %v, %v; want it past the header check", c, err)
	}
	if _, err := FrameCodec(frame(LZSS, MaxDecodedSize+1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("a frame declaring MaxDecodedSize+1: FrameCodec err = %v, want ErrCorrupt", err)
	}
	for name, f := range map[string][]byte{
		"lzss, MaxDecodedSize+1":  frame(LZSS, MaxDecodedSize+1),
		"lzss, MaxDecodedSize":    frame(LZSS, MaxDecodedSize),
		"flate, MaxDecodedSize":   frame(Flate, MaxDecodedSize),
		"lzss, just past payload": frame(LZSS, lzMaxRatio*9+1),
	} {
		var err error
		if n := allocatedBy(func() { _, err = Decode(f) }); n > 1<<16 {
			t.Errorf("%s: decoding allocated %d bytes", name, n)
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Decode err = %v, want ErrCorrupt", name, err)
		}
	}
	zeros := make([]byte, 1<<20)
	for _, codec := range []Codec{LZSS, Flate} {
		enc, err := Encode(codec, zeros)
		if err != nil {
			t.Fatal(err)
		}
		if dec, err := Decode(enc); err != nil || !bytes.Equal(dec, zeros) {
			t.Fatalf("%v: 1 MiB of zeros (%d bytes framed) does not round-trip: %v", codec, len(enc), err)
		}
	}
}

func TestLZSSCorruptStreams(t *testing.T) {
	good, err := Encode(LZSS, []byte(strings.Repeat("abcabcabc", 50)))
	if err != nil {
		t.Fatal(err)
	}
	// Truncations at every point must error, never panic or hang.
	for cut := 3; cut < len(good); cut++ {
		if _, err := Decode(good[:cut]); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}
}

func TestLZSSBackRefBeforeStart(t *testing.T) {
	// Hand-craft a stream whose first token is a pair referencing
	// nonexistent history.
	frame := []byte{frameMagic, byte(LZSS), 10, 0x00, 0xFF, 0xF0}
	if _, err := Decode(frame); err == nil {
		t.Fatal("back-reference before start decoded successfully")
	}
}

func TestQuickRoundTripRandom(t *testing.T) {
	for _, codec := range allCodecs {
		codec := codec
		f := func(data []byte) bool {
			enc, err := Encode(codec, data)
			if err != nil {
				return false
			}
			dec, err := Decode(enc)
			return err == nil && bytes.Equal(dec, data)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%v: %v", codec, err)
		}
	}
}

func TestQuickRoundTripStructured(t *testing.T) {
	// Random but compressible inputs: repeated random phrases.
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		var b bytes.Buffer
		phrase := make([]byte, 2+r.Intn(30))
		r.Read(phrase)
		for i := 0; i < r.Intn(100); i++ {
			if r.Intn(4) == 0 {
				extra := make([]byte, r.Intn(10))
				r.Read(extra)
				b.Write(extra)
			}
			b.Write(phrase)
		}
		data := b.Bytes()
		for _, codec := range allCodecs {
			enc, err := Encode(codec, data)
			if err != nil {
				t.Fatal(err)
			}
			dec, err := Decode(enc)
			if err != nil || !bytes.Equal(dec, data) {
				t.Fatalf("trial %d codec %v: round-trip failed: %v", trial, codec, err)
			}
		}
	}
}

func TestParseCodec(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Codec
		ok   bool
	}{
		{"none", None, true},
		{"", None, true},
		{"lzss", LZSS, true},
		{"flate", Flate, true},
		{"zip", None, false},
	} {
		got, err := ParseCodec(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseCodec(%q) = %v, %v", tc.in, got, err)
		}
	}
	for _, c := range allCodecs {
		back, err := ParseCodec(c.String())
		if err != nil || back != c {
			t.Errorf("ParseCodec(String(%v)) = %v, %v", c, back, err)
		}
	}
}

func BenchmarkLZSSEncode(b *testing.B) {
	doc := []byte(strings.Repeat(`<transaction from="bank-a" to="bank-b" amount="100"/>`, 100))
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(LZSS, doc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLZSSDecode(b *testing.B) {
	doc := []byte(strings.Repeat(`<transaction from="bank-a" to="bank-b" amount="100"/>`, 100))
	enc, _ := Encode(LZSS, doc)
	b.SetBytes(int64(len(doc)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(enc); err != nil {
			b.Fatal(err)
		}
	}
}
