package compress

import (
	"bytes"
	"math/rand"
	"testing"
)

// worstCaseFrame is the buffer push.EncodeDelivery sizes a mailbox
// answer for: the frame header and DEFLATE's stored-block worst case.
func worstCaseFrame(n int) int { return n + n/4096 + 32 }

// checkDeflate encodes data with both DEFLATE codecs and checks that
// the frame decodes to data through Decode and fits worstCaseFrame.
func checkDeflate(t *testing.T, data []byte) {
	t.Helper()
	for _, codec := range []Codec{Flate, FlateDict} {
		frame, err := Encode(codec, data)
		if err != nil {
			t.Fatalf("%v: Encode(%d bytes): %v", codec, len(data), err)
		}
		if len(frame) > worstCaseFrame(len(data)) {
			t.Fatalf("%v: %d bytes framed to %d, over the worst case %d", codec, len(data), len(frame), worstCaseFrame(len(data)))
		}
		dec, err := Decode(frame)
		if err != nil {
			t.Fatalf("%v: Decode of the %d-byte encode: %v", codec, len(data), err)
		}
		if !bytes.Equal(dec, data) {
			t.Fatalf("%v: %d bytes round-tripped to %d different bytes", codec, len(data), len(dec))
		}
	}
}

// FuzzFlateEncode: any input, in either DEFLATE codec, decodes through
// Decode to itself, and its frame fits the buffer a mailbox answer is
// sized for.
func FuzzFlateEncode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("a"))
	f.Add([]byte(`<?xml version="1.0" encoding="UTF-8"?><mailbox device="pda-00" next="7" evicted="0"><entry seq="7" kind="result" agent="ag-gw-1"/></mailbox>`))
	f.Add(bytes.Repeat([]byte("ab"), 300))
	f.Fuzz(func(t *testing.T, data []byte) { checkDeflate(t, data) })
}

// TestDeflateEdges: the inputs at the encoder's limits — empty, one
// byte, past the 32 KiB window, past a 64 KiB block — round-trip.
func TestDeflateEdges(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	text := func(n int) []byte {
		words := [][]byte{[]byte("receipt "), []byte("<value type=\"int\">"), []byte("</value>"), []byte("bank-a "), []byte("txid ")}
		var b []byte
		for len(b) < n {
			b = append(b, words[r.Intn(len(words))]...)
		}
		return b[:n]
	}
	far := text(40 << 10)
	far = append(far, far[:4<<10]...) // repeats from beyond the window
	for name, data := range map[string][]byte{
		"empty":           {},
		"one byte":        {'x'},
		"four bytes":      []byte("abcd"),
		"past the window": far,
		"several blocks":  text(150 << 10),
		"one long run":    bytes.Repeat([]byte{'z'}, 70<<10),
	} {
		t.Run(name, func(t *testing.T) { checkDeflate(t, data) })
	}
}

// TestDeflateIncompressibleIsStored: noise goes out as stored blocks —
// 5 bytes per 64 KiB block beyond the data — and still fits the
// buffer a mailbox answer is sized for.
func TestDeflateIncompressibleIsStored(t *testing.T) {
	noise := make([]byte, 200<<10)
	rand.New(rand.NewSource(1951)).Read(noise)
	checkDeflate(t, noise)
	out := flatePrimer.deflate(nil, noise)
	blocks := (len(noise) + dfMaxBlock - 1) / dfMaxBlock
	if want := len(noise) + 5*blocks; len(out) != want {
		t.Fatalf("%d bytes of noise deflated to %d, want %d: %d stored blocks", len(noise), len(out), want, blocks)
	}
	for i := 0; i < blocks; i++ {
		if btype := out[i*(5+dfMaxBlock)] >> 1 & 3; btype != 0 {
			t.Fatalf("block %d has type %d, want stored (0)", i, btype)
		}
	}
}

// TestDeflateDeterministic: the same input gives the same bytes, from a
// fresh encoder state and from one another encode has used.
func TestDeflateDeterministic(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 50; i++ {
		data := randPayload(r)
		for _, codec := range []Codec{Flate, FlateDict} {
			a, _ := Encode(codec, data)
			Encode(codec, randPayload(r))
			deflatePool.Put(new(deflateState))
			b, _ := Encode(codec, data)
			if !bytes.Equal(a, b) {
				t.Fatalf("iter %d %v: two encodes of the same %d bytes differ", i, codec, len(data))
			}
		}
	}
}

// TestHuffmanLengthsLimited: skewed frequencies whose optimal code is
// deeper than the limit still get a complete code within it, with the
// more frequent of two symbols never coded longer.
func TestHuffmanLengthsLimited(t *testing.T) {
	var h huffScratch
	freq := make([]uint32, dfLitCodes)
	f := uint32(1)
	for s := range freq[:30] {
		freq[s] = f
		f += f/2 + 1 // Fibonacci-like: an unlimited code would be 29 deep
	}
	for _, maxBits := range []int{15, 7} {
		lengths := make([]uint8, len(freq))
		h.lengths(freq, lengths, maxBits)
		kraft := 0
		for s, l := range lengths {
			if (l == 0) != (freq[s] == 0) || int(l) > maxBits {
				t.Fatalf("max %d: symbol %d (freq %d) has length %d", maxBits, s, freq[s], l)
			}
			if l > 0 {
				kraft += 1 << (maxBits - int(l))
			}
			if s > 0 && freq[s] > freq[s-1] && l > lengths[s-1] {
				t.Fatalf("max %d: symbol %d is more frequent than %d but coded longer", maxBits, s, s-1)
			}
		}
		if kraft != 1<<maxBits {
			t.Fatalf("max %d: Kraft sum %d/%d, want a complete code", maxBits, kraft, 1<<maxBits)
		}
	}
}

func BenchmarkFlateEncode(b *testing.B) {
	doc := []byte(`<?xml version="1.0" encoding="UTF-8"?><mailbox device="pda-00" next="7" evicted="0"><entry seq="7" kind="result" agent="ag-gw-1" event="result:ag-gw-1"><![CDATA[<?xml version="1.0" encoding="UTF-8"?><result-document agent="ag-gw-1" code-id="app.echo" owner="pda-00" status="done" hops="0" steps="1"><result key="echo"><value type="map"><entry key="memo"><value type="str">transfer balance account receipt branch teller ledger payment order invoice</value></entry><entry key="n"><value type="int">7</value></entry></value></result></result-document>]]></entry></mailbox>`)
	for _, codec := range []Codec{Flate, FlateDict} {
		b.Run(codec.String(), func(b *testing.B) {
			b.ReportAllocs()
			buf := make([]byte, 0, 2*len(doc))
			for i := 0; i < b.N; i++ {
				buf, _ = AppendEncode(buf[:0], codec, doc)
			}
		})
	}
}
