package gateway

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
)

// The dispatch answer as a mailbox delivery (DESIGN.md §7, "answered in
// the dispatch"): what rides it, who may ask for it, and what a request
// that does not ask gets.

// tryUpload sends a packed upload with the given request headers.
func tryUpload(f *fixture, body []byte, headers map[string]string) (*transport.Response, error) {
	req := &transport.Request{Path: "/pdagent/dispatch", Body: body}
	for k, v := range headers {
		req.SetHeader(k, v)
	}
	return f.tr.RoundTrip(context.Background(), "gw-t", req)
}

// asking is the header pair of a device that holds its mailbox token.
func asking(tok string, ack uint64) map[string]string {
	return map[string]string{"mailbox-token": tok, "ack": strconv.FormatUint(ack, 10)}
}

func upload(t *testing.T, f *fixture, body []byte, headers map[string]string) *transport.Response {
	t.Helper()
	resp, err := tryUpload(f, body, headers)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// wantPlain checks a dispatch answer that carries no mail: the agent id
// in body and header, and the mailbox token stamped or not.
func wantPlain(t *testing.T, resp *transport.Response, wantToken string) string {
	t.Helper()
	id := resp.Text()
	want := map[string]string{"agent": id}
	if wantToken != "" {
		want["mailbox-token"] = wantToken
	}
	if !resp.IsOK() || id == "" || !reflect.DeepEqual(resp.Header, want) {
		t.Fatalf("answer = %d %q, headers %v; want the agent id alone and headers %v", resp.Status, id, resp.Header, want)
	}
	return id
}

// wantMail checks a dispatch answer that carries mail and returns it.
func wantMail(t *testing.T, resp *transport.Response) (agentID string, entries []*push.Entry, watermark uint64) {
	t.Helper()
	agentID = resp.GetHeader("agent")
	if !resp.IsOK() || agentID == "" || len(resp.Header) != 1 {
		t.Fatalf("answer = %d %q, headers %v; want a mailbox document under the agent header alone", resp.Status, resp.Text(), resp.Header)
	}
	_, entries, watermark, _, tok, _, err := push.ParseEntries(resp.Body)
	if err != nil || tok != "" {
		t.Fatalf("answer body: %v (token %q)", err, tok)
	}
	return agentID, entries, watermark
}

// TestOldDeviceDispatchAnswerUnchanged: an upload without the
// mailbox-token + ack pair — an old device, any device's first journey —
// is answered exactly as before: status, body and the two headers, with
// mail pending or not. One header without the other asks for nothing
// either.
func TestOldDeviceDispatchAnswerUnchanged(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	hub := f.gw.Mailbox()
	for i := 1; i <= 2; i++ {
		resp := upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), nil)
		id := fmt.Sprint("ag-gw-t-", i)
		want := &transport.Response{
			Status: transport.StatusOK,
			Header: map[string]string{"agent": id, "mailbox-token": hub.TokenOf("dev-1")},
			Body:   []byte(id),
		}
		if !reflect.DeepEqual(resp, want) {
			t.Fatalf("journey %d answered %+v, want %+v", i, resp, want)
		}
	}
	tok := hub.TokenOf("dev-1")
	for _, headers := range []map[string]string{{"mailbox-token": tok}, {"ack": "2"}, {"mailbox-token": tok, "ack": "two"}} {
		wantPlain(t, upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), headers), tok)
	}
	if st := hub.Stats(); st.Delivered != 0 || st.StagedAcks != 0 || st.Pending != 5 {
		t.Fatalf("hub after five uploads that asked for nothing: %+v", st)
	}
}

// TestMailboxAnswersAreFrames: every mailbox answer a device receives —
// a fetch, a long-poll, mail attached to a dispatch answer, and the
// empty answer for a device the hub has never heard of — is one LZSS
// frame of exactly the document push.EncodeEntries renders for the
// pending entries.
func TestMailboxAnswersAreFrames(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	hub := f.gw.Mailbox()
	wantFrame := func(what string, resp *transport.Response, want []byte) {
		t.Helper()
		if !resp.IsOK() || !compress.IsFrame(resp.Body) {
			t.Fatalf("%s: %d %q, want a frame", what, resp.Status, resp.Body)
		}
		if c, err := compress.FrameCodec(resp.Body); err != nil || c != compress.LZSS {
			t.Fatalf("%s: codec %v, %v; want LZSS", what, c, err)
		}
		if doc, err := compress.Decode(resp.Body); err != nil || !bytes.Equal(doc, want) {
			t.Fatalf("%s: frame decodes to %q (%v), want %q", what, doc, err, want)
		}
	}
	get := func(path, device string) *transport.Response {
		t.Helper()
		req := &transport.Request{Path: path}
		req.SetHeader("device", device)
		req.SetHeader("ack", "0")
		req.SetHeader("mailbox-token", hub.TokenOf(device))
		if path == "/pdagent/mailbox/poll" {
			req.SetHeader("wait", "1s")
		}
		resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	wantFrame("unknown device", get("/pdagent/mailbox/poll", "nobody"), push.EncodeEntries("nobody", nil, 0, 0))
	wantPlain(t, upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), nil), hub.TokenOf("dev-1"))
	wantFrame("fetch", get("/pdagent/mailbox", "dev-1"), push.EncodeEntries("dev-1", hub.Export("dev-1"), 1, 0))
	resp := upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), asking(hub.TokenOf("dev-1"), 0))
	wantFrame("dispatch answer", resp, push.EncodeEntries("dev-1", hub.Export("dev-1"), 2, 0))
	wantFrame("long-poll", get("/pdagent/mailbox/poll", "dev-1"), push.EncodeEntries("dev-1", hub.Export("dev-1"), 2, 0))
}

// TestDispatchAnswerBoundedBatch sits on the bound: of 33 entries
// pending beyond the cursor, 32 ride the dispatch answer and the 33rd —
// and the journey's own result behind it — are fetched by the next poll,
// nothing twice; the delivery counter says which answer carried what.
func TestDispatchAnswerBoundedBatch(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	hub := f.gw.Mailbox()
	tok := hub.Touch("dev-1")
	for i := 1; i <= defaultPollBatch+1; i++ {
		agent := "ag-x-" + strconv.Itoa(i)
		if _, _, err := hub.Enqueue("dev-1", push.KindResult, agent, "result:"+agent, []byte("<r/>")); err != nil {
			t.Fatal(err)
		}
	}
	agentID, entries, watermark := wantMail(t, upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), asking(tok, 0)))
	if len(entries) != defaultPollBatch || entries[0].Seq != 1 || watermark != defaultPollBatch {
		t.Fatalf("answer carried %d entries from seq %d, watermark %d; want 1..%d", len(entries), entries[0].Seq, watermark, defaultPollBatch)
	}
	rest, watermark, _ := fetchMailbox(t, f, "dev-1", watermark, time.Second)
	if len(rest) != 2 || rest[0].Seq != defaultPollBatch+1 || rest[1].AgentID != agentID || watermark != defaultPollBatch+2 {
		t.Fatalf("the poll after it fetched %d entries, watermark %d; want the 33rd and the result of %s", len(rest), watermark, agentID)
	}
	if again, _, _ := pollMailbox(t, f, "dev-1", watermark); len(again) != 0 || hub.Stats().Delivered != defaultPollBatch+2 {
		t.Fatalf("after the last ack: %d entries offered again, hub %+v", len(again), hub.Stats())
	}
	scrape := f.gw.Handler().Serve(context.Background(), &transport.Request{Path: "/metrics"}).Text()
	for _, row := range []string{
		"# TYPE pdagent_mailbox_delivered_total counter\n",
		"pdagent_mailbox_delivered_total{via=\"dispatch\"} 32\n",
		"pdagent_mailbox_delivered_total{via=\"poll\"} 2\n",
		"pdagent_mailbox_delivered_total{via=\"fetch\"} 0\n",
	} {
		if !strings.Contains(scrape, row) {
			t.Fatalf("scrape lacks %q", row)
		}
	}
}

// TestDispatchAnswerMailNeedsFreshNonceAndToken: the ack and the mail
// are gated like the token hand-out — behind a fresh nonce — and by the
// token itself. A captured upload replayed with the device's token and an
// inflated ack, a stale token, and a cursor from another mailbox
// generation each retire nothing and (the first two) read nothing.
func TestDispatchAnswerMailNeedsFreshNonceAndToken(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	hub := f.gw.Mailbox()
	wantPlain(t, upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), nil), hub.TokenOf("dev-1"))
	tok := hub.TokenOf("dev-1")

	captured := f.packPI(t, f.echoPI(sub, "dev-1"), false)
	agentID, entries, watermark := wantMail(t, upload(t, f, captured, asking(tok, 0)))
	if len(entries) != 2 || entries[1].AgentID != agentID || watermark != 2 {
		t.Fatalf("fresh upload carried %d entries, watermark %d; want both results", len(entries), watermark)
	}
	untouched := func(what string) {
		t.Helper()
		if st := hub.Stats(); st.Delivered != 0 || st.StagedAcks != 0 || uint64(st.Pending) != st.Enqueued {
			t.Fatalf("%s moved the mailbox: %+v", what, st)
		}
	}
	// Replayed verbatim, with the token and an ack that would retire
	// everything: the idempotent answer, mail-less and token-less.
	if id := wantPlain(t, upload(t, f, captured, asking(tok, watermark)), ""); id != agentID {
		t.Fatalf("replay answered %q, want the original %q", id, agentID)
	}
	untouched("a replayed upload")
	// A stale token (the gateway lost a volatile mailbox store): the
	// answer of a device that presented none, current token stamped.
	wantPlain(t, upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), asking("00112233445566778899aabbccddeeff", watermark)), tok)
	untouched("a stale token")
	// A cursor no entry here ever had is ignored as on a poll: the mail is
	// still offered from the real cursor.
	_, entries, _ = wantMail(t, upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), asking(tok, 1000)))
	if len(entries) != 4 || entries[0].Seq != 1 {
		t.Fatalf("after ack=1000 the answer carried %d entries from seq %d, want all four", len(entries), entries[0].Seq)
	}
	untouched("an ack beyond the sequence space")
}

// TestRefusedTenantAdmissionStagesNothing: a dispatch refused by tenant
// admission (429) happened, as far as the mailbox goes, not at all — the
// ack it carried is not staged and the hub is not touched.
func TestRefusedTenantAdmissionStagesNothing(t *testing.T) {
	f := newTenantFixture(t, func(c *Config) { c.Mailbox = &MailboxConfig{} },
		&tenant.Tenant{ID: "acme", Secret: "s3", Limits: tenant.Limits{RatePerSec: 0.0001, Burst: 1}})
	f.addEcho(t)
	sub, _ := f.subscribeTenant(t, "echo", "dev-1", "acme", "s3")
	hub := f.gw.Mailbox()
	wantPlain(t, upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), nil), hub.TokenOf("dev-1"))
	before := hub.Stats()
	resp := upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), asking(hub.TokenOf("dev-1"), 1))
	if resp.Status != transport.StatusTooManyRequests {
		t.Fatalf("over-rate upload: %d %s, want 429", resp.Status, resp.Text())
	}
	if st := hub.Stats(); st != before || st.Pending != 1 {
		t.Fatalf("a refused upload moved the hub: %+v, was %+v", st, before)
	}
}

// TestFailedAdmissionLeavesAckStaged: the ack is staged ahead of the
// admission, so an admission that then fails (500: the result's enqueue
// was refused) leaves it standing — the device said it has that mail, and
// that does not stop being true. The retry of the same PI runs clean: its
// enqueue commits the staged ack with the new entry.
func TestFailedAdmissionLeavesAckStaged(t *testing.T) {
	store := &failingStore{Store: rms.NewMemStore("mailbox", 0)}
	f := newMailboxFixture(t, &MailboxConfig{Store: store})
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	hub := f.gw.Mailbox()
	wantPlain(t, upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), nil), hub.TokenOf("dev-1"))
	tok := hub.TokenOf("dev-1")

	body := f.packPI(t, f.echoPI(sub, "dev-1"), false)
	store.broken.Store(true)
	if resp := upload(t, f, body, asking(tok, 1)); resp.Status != transport.StatusServerError {
		t.Fatalf("upload with a failing mailbox store: %d %s, want 500", resp.Status, resp.Text())
	}
	if st := hub.Stats(); st.StagedAcks != 1 || st.Delivered != 1 || st.Pending != 0 {
		t.Fatalf("after the failed admission: %+v, want ack 1 standing, staged", st)
	}
	store.broken.Store(false)
	agentID, entries, watermark := wantMail(t, upload(t, f, body, asking(tok, 1)))
	if len(entries) != 1 || entries[0].AgentID != agentID || watermark != 2 {
		t.Fatalf("retry carried %d entries, watermark %d; want its own result alone", len(entries), watermark)
	}
	if st := hub.Stats(); st.StagedAcks != 0 || st.AcksFolded != 1 || st.AcksFlushed != 0 {
		t.Fatalf("after the retry: %+v, want ack 1 folded into the retry's enqueue", st)
	}
	if n, _ := store.NumRecords(); n != 2 {
		t.Fatalf("mailbox store holds %d records, want entry 2 and the meta", n)
	}
}
