package compress

import (
	"bytes"
	"math/rand"
	"testing"
)

// randPayload draws payloads across the compressibility spectrum:
// uniform noise (incompressible), small-alphabet text, runs, and
// repeated dictionary phrases (LZSS's best case).
func randPayload(r *rand.Rand) []byte {
	n := r.Intn(8 << 10)
	out := make([]byte, n)
	switch r.Intn(4) {
	case 0: // uniform noise
		r.Read(out)
	case 1: // small alphabet
		const alpha = "abcde <>&\n"
		for i := range out {
			out[i] = alpha[r.Intn(len(alpha))]
		}
	case 2: // long runs
		for i := 0; i < n; {
			b := byte(r.Intn(4))
			run := 1 + r.Intn(300)
			for j := 0; j < run && i < n; j, i = j+1, i+1 {
				out[i] = b
			}
		}
	default: // repeated phrases, windows apart
		phrase := []byte("<value type=\"int\">12345</value>")
		for i := 0; i < n; i++ {
			if r.Intn(8) == 0 {
				out[i] = byte(r.Intn(256))
			} else {
				out[i] = phrase[i%len(phrase)]
			}
		}
	}
	return out
}

// TestLZSSRoundTripProperty: decompress(compress(x)) == x for random
// payloads of every shape, through the framed Encode/Decode path.
func TestLZSSRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(4242))
	for i := 0; i < 300; i++ {
		payload := randPayload(r)
		frame, err := Encode(LZSS, payload)
		if err != nil {
			t.Fatalf("iter %d: Encode: %v", i, err)
		}
		back, err := Decode(frame)
		if err != nil {
			t.Fatalf("iter %d: Decode: %v", i, err)
		}
		if !bytes.Equal(payload, back) {
			t.Fatalf("iter %d: LZSS round trip corrupted %d-byte payload", i, len(payload))
		}
	}
}

// TestAllCodecsRoundTripProperty runs the same property over every
// registered codec, including the raw (unframed) lzss primitives.
func TestAllCodecsRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for i := 0; i < 100; i++ {
		payload := randPayload(r)
		for _, codec := range []Codec{None, LZSS, Flate, FlateDict} {
			frame, err := Encode(codec, payload)
			if err != nil {
				t.Fatalf("iter %d codec %s: Encode: %v", i, codec, err)
			}
			if got, err := FrameCodec(frame); err != nil || got != codec {
				t.Fatalf("iter %d: FrameCodec = %v, %v", i, got, err)
			}
			back, err := Decode(frame)
			if err != nil {
				t.Fatalf("iter %d codec %s: Decode: %v", i, codec, err)
			}
			if !bytes.Equal(payload, back) {
				t.Fatalf("iter %d codec %s: round trip corrupted payload", i, codec)
			}
		}
		// The unframed primitive pair as well.
		raw := lzssCompress(payload)
		back, err := lzssDecompress(raw, len(payload))
		if err != nil {
			t.Fatalf("iter %d: lzssDecompress: %v", i, err)
		}
		if !bytes.Equal(payload, back) {
			t.Fatalf("iter %d: raw lzss round trip corrupted payload", i)
		}
	}
}
