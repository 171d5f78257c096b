package compress_test

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"pdagent/internal/compress"
	"pdagent/internal/mavm"
	"pdagent/internal/push"
	"pdagent/internal/wire"
)

// stdlibDeflate is the reference the encoder is measured against: the
// standard library's writer at level, primed with dict.
func stdlibDeflate(t *testing.T, level int, dict, data []byte) int {
	t.Helper()
	var b bytes.Buffer
	w, err := flate.NewWriterDict(&b, level, dict)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return b.Len()
}

// answer renders the mailbox answer a device reads for one result
// document.
func answer(t *testing.T, rd *wire.ResultDocument) []byte {
	t.Helper()
	body, err := rd.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	return push.EncodeEntries("pda-00", []*push.Entry{{Seq: 41, Kind: push.KindResult, AgentID: rd.AgentID,
		EventID: "result:" + rd.AgentID, Body: body}}, 41, 0)
}

// TestDeflateAnswerSizes renders the answers a gateway sends — the
// e-banking receipts, echoes of 64, 512 and 2048 B memos, the empty
// answer — and checks each DEFLATE stream is no larger than the
// standard library's: level 2 primed with the dictionary for
// FlateDict, BestSpeed for Flate.
func TestDeflateAnswerSizes(t *testing.T) {
	var receipts []mavm.Value
	for _, bank := range []string{"bank-a", "bank-b"} {
		for i := 1; i <= 5; i++ {
			m := mavm.NewMap()
			m.MapEntries()["bank"] = mavm.Str(bank)
			m.MapEntries()["txid"] = mavm.Str(fmt.Sprintf("%s-tx-%d", bank, 100+i))
			m.MapEntries()["amount"] = mavm.Int(int64(3 * i))
			receipts = append(receipts, m)
		}
	}
	answers := map[string][]byte{
		"e-banking": answer(t, &wire.ResultDocument{AgentID: "ag-localhost:8080-17", CodeID: "app.ebanking", Owner: "pda-00",
			Status: "done", Hops: 3, Steps: 412, Results: []mavm.Result{
				{Key: "receipts", Value: mavm.NewList(receipts...)},
				{Key: "failures", Value: mavm.NewList()},
				{Key: "banksVisited", Value: mavm.Int(2)}}}),
		"empty": push.EncodeEntries("pda-00", nil, 41, 0),
	}
	words := strings.Fields("transfer balance account receipt branch teller ledger payment order invoice customer deposit")
	for _, size := range []int{64, 512, 2048} {
		var memo strings.Builder
		for i := 0; memo.Len() < size; i = (i*7 + 3) % len(words) {
			memo.WriteString(words[i] + " ")
		}
		echo := mavm.NewMap()
		echo.MapEntries()["memo"] = mavm.Str(memo.String()[:size])
		echo.MapEntries()["n"] = mavm.Int(int64(size))
		answers[fmt.Sprintf("echo %d B", size)] = answer(t, &wire.ResultDocument{AgentID: "ag-localhost:8080-9", CodeID: "app.echo",
			Owner: "pda-00", Status: "done", Steps: 2, Results: []mavm.Result{{Key: "echo", Value: echo}, {Key: "steps", Value: mavm.Int(1)}}})
	}
	for name, doc := range answers {
		for _, tc := range []struct {
			codec compress.Codec
			ref   int
		}{
			{compress.Flate, stdlibDeflate(t, flate.BestSpeed, nil, doc)},
			{compress.FlateDict, stdlibDeflate(t, 2, compress.FlateDictionary, doc)},
		} {
			frame, err := compress.Encode(tc.codec, doc)
			if err != nil {
				t.Fatal(err)
			}
			// The stream follows the magic, the codec and the length.
			if got := len(frame) - 2 - len(binary.AppendUvarint(nil, uint64(len(doc)))); got > tc.ref {
				t.Errorf("%s, %v: %d-byte document deflated to %d bytes, the standard library's to %d", name, tc.codec, len(doc), got, tc.ref)
			} else {
				t.Logf("%s, %v: %d bytes -> %d (standard library %d)", name, tc.codec, len(doc), got, tc.ref)
			}
		}
	}
}
