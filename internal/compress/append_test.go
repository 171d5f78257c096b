package compress

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// TestAppendRoundTripWithPrefix verifies the append-style frame APIs
// compose with a non-empty destination (the pooled-buffer contract) for
// every codec.
func TestAppendRoundTripWithPrefix(t *testing.T) {
	payload := []byte("the quick brown fox jumps over the lazy dog, twice: the quick brown fox")
	for _, codec := range []Codec{None, LZSS, Flate, FlateDict} {
		prefix := []byte("HDR")
		frame, err := AppendEncode(append([]byte(nil), prefix...), codec, payload)
		if err != nil {
			t.Fatalf("%s: AppendEncode: %v", codec, err)
		}
		if !bytes.HasPrefix(frame, prefix) {
			t.Fatalf("%s: AppendEncode clobbered the prefix", codec)
		}
		plain, err := Encode(codec, payload)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(frame[len(prefix):], plain) {
			t.Fatalf("%s: AppendEncode output differs from Encode", codec)
		}
		out, err := AppendDecode([]byte("OUT"), plain)
		if err != nil {
			t.Fatalf("%s: AppendDecode: %v", codec, err)
		}
		if !bytes.Equal(out, append([]byte("OUT"), payload...)) {
			t.Fatalf("%s: AppendDecode round trip mangled payload", codec)
		}
	}
}

// TestLZSSOverlappingRuns pins the back-reference copy split: distances
// shorter than the match length (RLE-style runs, where bulk copy would
// read bytes it has not written yet) must still decode exactly.
func TestLZSSOverlappingRuns(t *testing.T) {
	cases := [][]byte{
		bytes.Repeat([]byte{'a'}, 1000),                              // dist 1, max-length runs
		bytes.Repeat([]byte("ab"), 700),                              // dist 2
		bytes.Repeat([]byte("abc"), 500),                             // dist 3 == min match
		append(bytes.Repeat([]byte("xyzw"), 300), 0, 1),              // dist 4 + literal tail
		bytes.Repeat([]byte("0123456789abcdef"), 260),                // dist 16 ≈ max match
		append([]byte("seed"), bytes.Repeat([]byte("seed"), 200)...), // self-extending
	}
	for i, payload := range cases {
		enc := lzssCompress(payload)
		dec, err := lzssDecompress(enc, len(payload))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !bytes.Equal(dec, payload) {
			t.Fatalf("case %d: overlapping-run round trip corrupted payload", i)
		}
	}
}

// TestLZSSNonOverlappingBulkCopy exercises the copy-based branch with
// long-distance matches (dist >= length always).
func TestLZSSNonOverlappingBulkCopy(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	block := make([]byte, 600)
	for i := range block {
		block[i] = byte(r.Intn(4)) // compressible but not runs
	}
	payload := append(append(append([]byte(nil), block...), []byte("spacer-spacer-spacer")...), block...)
	enc := lzssCompress(payload)
	dec, err := lzssDecompress(enc, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec, payload) {
		t.Fatal("bulk-copy round trip corrupted payload")
	}
}

// TestPooledCodecsConcurrent hammers the pooled flate/LZSS scratch
// state from many goroutines; run under -race it proves the pools never
// share live state.
func TestPooledCodecsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			var frame, out []byte
			for i := 0; i < 100; i++ {
				payload := make([]byte, r.Intn(2000))
				for j := range payload {
					payload[j] = byte(r.Intn(8))
				}
				codec := []Codec{None, LZSS, Flate, FlateDict}[i%4]
				var err error
				frame, err = AppendEncode(frame[:0], codec, payload)
				if err != nil {
					t.Errorf("goroutine %d: encode: %v", g, err)
					return
				}
				out, err = AppendDecode(out[:0], frame)
				if err != nil {
					t.Errorf("goroutine %d: decode: %v", g, err)
					return
				}
				if !bytes.Equal(out, payload) {
					t.Errorf("goroutine %d iter %d: corrupted round trip", g, i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
