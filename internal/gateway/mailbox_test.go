package gateway

import (
	"context"
	"path/filepath"
	"strconv"
	"testing"
	"time"

	"pdagent/internal/pisec"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

func newMailboxFixture(t *testing.T, mc *MailboxConfig) *fixture {
	t.Helper()
	if mc == nil {
		mc = &MailboxConfig{}
	}
	return newFixtureCfg(t, func(c *Config) { c.Mailbox = mc })
}

// pollMailbox runs one fetch+ack round trip for a device.
func pollMailbox(t *testing.T, f *fixture, device string, ack uint64) (entries []*push.Entry, watermark, evicted uint64) {
	t.Helper()
	req := &transport.Request{Path: "/pdagent/mailbox"}
	req.SetHeader("device", device)
	req.SetHeader("ack", strconv.FormatUint(ack, 10))
	// Touch mints (or returns) the token the device would have received
	// on its authenticated dispatch.
	req.SetHeader("mailbox-token", f.gw.Mailbox().Touch(device))
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.IsOK() {
		t.Fatalf("mailbox poll: %d %s", resp.Status, resp.Text())
	}
	_, entries, watermark, evicted, _, _, err = push.ParseEntries(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return entries, watermark, evicted
}

// dispatchEcho subscribes and dispatches one echo journey, returning
// the agent id (journey not yet run).
func dispatchEcho(t *testing.T, f *fixture, owner string) string {
	t.Helper()
	sub := f.subscribe(t, "echo", owner)
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       owner,
		Source:      sub.Package.Source,
	}
	resp := f.dispatchPI(t, pi, true)
	if !resp.IsOK() {
		t.Fatalf("dispatch: %d %s", resp.Status, resp.Text())
	}
	return resp.Text()
}

// TestMailboxReceivesResult: the result document is enqueued the moment
// the agent comes home, delivered through the mailbox with a resumable
// cursor, and retired exactly once by the ack.
func TestMailboxReceivesResult(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	agentID := dispatchEcho(t, f, "dev-1")

	// Nothing yet: the journey has not run.
	if entries, _, _ := pollMailbox(t, f, "dev-1", 0); len(entries) != 0 {
		t.Fatalf("mail before completion: %d entries", len(entries))
	}
	f.queue.Drain()

	entries, watermark, evicted := pollMailbox(t, f, "dev-1", 0)
	if len(entries) != 1 || evicted != 0 {
		t.Fatalf("poll = %d entries, evicted %d; want 1, 0", len(entries), evicted)
	}
	e := entries[0]
	if e.Kind != push.KindResult || e.AgentID != agentID || watermark != e.Seq {
		t.Fatalf("entry = %+v, watermark %d", e, watermark)
	}
	rd, err := wire.ParseResultDocument(e.Body)
	if err != nil || !rd.OK() || rd.AgentID != agentID {
		t.Fatalf("mailbox body is not the result document: %+v (%v)", rd, err)
	}

	// Ack retires it; the cursor makes redelivery impossible.
	if entries, _, _ := pollMailbox(t, f, "dev-1", watermark); len(entries) != 0 {
		t.Fatalf("mail redelivered after ack: %d entries", len(entries))
	}
	if st := f.gw.Mailbox().Stats(); st.Enqueued != 1 || st.Delivered != 1 {
		t.Fatalf("hub stats = %+v", st)
	}
}

func TestMailboxDisabledIs404(t *testing.T) {
	f := newFixture(t)
	req := &transport.Request{Path: "/pdagent/mailbox"}
	req.SetHeader("device", "dev-1")
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != transport.StatusNotFound {
		t.Fatalf("mailbox on a plain gateway: %d, want 404", resp.Status)
	}
	if f.gw.Mailbox() != nil {
		t.Fatal("hub exists without Config.Mailbox")
	}
}

// TestMailboxSurvivesGatewayRestart: the mailbox store outlives the
// gateway process; a replacement instance serves the same entries and
// the device resumes from its cursor.
func TestMailboxSurvivesGatewayRestart(t *testing.T) {
	store := rms.NewMemStore("mailbox", 0)
	f := newMailboxFixture(t, &MailboxConfig{Store: store})
	f.addEcho(t)
	agentID := dispatchEcho(t, f, "dev-1")
	f.queue.Drain()

	// "Crash": build a fresh gateway over the same mailbox store.
	f.gw.Close()
	gw2, err := New(Config{
		Addr:      "gw-t",
		KeyPair:   f.kp,
		Transport: f.net.Transport("wired"),
		Spawn:     f.queue.Go,
		Documents: rms.NewMemStore("docs2", 0),
		Mailbox:   &MailboxConfig{Store: store},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw2.Close()
	f.net.AddHost("gw-t", "wired", gw2.Handler())
	f.gw = gw2

	entries, watermark, _ := pollMailbox(t, f, "dev-1", 0)
	if len(entries) != 1 || entries[0].AgentID != agentID {
		t.Fatalf("mail lost across restart: %d entries", len(entries))
	}
	if entries, _, _ := pollMailbox(t, f, "dev-1", watermark); len(entries) != 0 {
		t.Fatalf("duplicate after restart ack: %d entries", len(entries))
	}
}

// TestResultTTLSweep: the shared sweeper reclaims expired result (and
// request) documents from the File Directory, flips the agent to the
// terminal expired state, and leaves a visible status note in the
// owner's mailbox.
func TestResultTTLSweep(t *testing.T) {
	f := newMailboxFixture(t, &MailboxConfig{ResultTTL: time.Nanosecond})
	f.addEcho(t)
	agentID := dispatchEcho(t, f, "dev-1")
	f.queue.Drain()

	if n, _ := f.docs.NumRecords(); n != 2 {
		t.Fatalf("documents before sweep = %d, want request + result", n)
	}
	time.Sleep(2 * time.Millisecond) // let the 1ns TTL elapse
	results, _ := f.gw.Sweep()
	if results != 1 || f.gw.ResultsSwept() != 1 {
		t.Fatalf("sweep reclaimed %d (counter %d), want 1", results, f.gw.ResultsSwept())
	}
	if n, _ := f.docs.NumRecords(); n != 0 {
		t.Fatalf("documents after sweep = %d, want 0 (request and result reclaimed)", n)
	}
	// A second sweep finds nothing: expiry is terminal, not repeated.
	if results, _ := f.gw.Sweep(); results != 0 {
		t.Fatalf("second sweep reclaimed %d", results)
	}

	rreq := &transport.Request{Path: "/pdagent/result"}
	rreq.SetHeader("agent", agentID)
	resp, _ := f.tr.RoundTrip(context.Background(), "gw-t", rreq)
	if resp.Status != transport.StatusGone {
		t.Fatalf("expired result fetch: %d %s, want 410", resp.Status, resp.Text())
	}

	// The mailbox holds the original result entry plus the expiry note.
	entries, _, _ := pollMailbox(t, f, "dev-1", 0)
	if len(entries) != 2 || entries[0].Kind != push.KindResult || entries[1].Kind != push.KindStatus {
		t.Fatalf("mailbox after sweep = %+v", entries)
	}
}

// TestMailboxLongPollWakes: a parked long-poll marks the device
// connected (presence) and wakes wait-free the instant mail arrives.
func TestMailboxLongPollWakes(t *testing.T) {
	f := newMailboxFixture(t, nil)
	hub := f.gw.Mailbox()
	// An authenticated dispatch opens the mailbox and mints the access
	// token; unknown devices get an immediate empty answer instead of
	// parking (no unauthenticated state creation).
	token := hub.Touch("dev-1")

	type pollResult struct {
		entries []*push.Entry
		err     error
	}
	done := make(chan pollResult, 1)
	go func() {
		req := &transport.Request{Path: "/pdagent/mailbox/poll"}
		req.SetHeader("device", "dev-1")
		req.SetHeader("mailbox-token", token)
		req.SetHeader("wait", "30s")
		resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
		if err != nil {
			done <- pollResult{err: err}
			return
		}
		_, entries, _, _, _, _, err := push.ParseEntries(resp.Body)
		done <- pollResult{entries: entries, err: err}
	}()

	// Wait for the poll to park (presence flips to connected).
	deadline := time.Now().Add(5 * time.Second)
	for !hub.Connected("dev-1") {
		if time.Now().After(deadline) {
			t.Fatal("long-poll never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := hub.Enqueue("dev-1", push.KindResult, "ag-x", "result:ag-x", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	select {
	case r := <-done:
		if r.err != nil || len(r.entries) != 1 || r.entries[0].AgentID != "ag-x" {
			t.Fatalf("long-poll result = %+v, %v", r.entries, r.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("long-poll did not wake on enqueue")
	}
	if hub.Connected("dev-1") {
		t.Fatal("presence not released after the poll returned")
	}
}

// TestMailboxRequiresToken: reading — and especially destructively
// acking — a mailbox demands the token minted on the authenticated
// dispatch path. Device names are guessable; without this an attacker
// could delete a victim's undelivered mail with one forged ack.
func TestMailboxRequiresToken(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	dispatchEcho(t, f, "dev-1")
	f.queue.Drain() // one result entry pending

	forge := func(tok string) *transport.Response {
		req := &transport.Request{Path: "/pdagent/mailbox"}
		req.SetHeader("device", "dev-1")
		req.SetHeader("ack", "1") // would delete the pending entry
		if tok != "" {
			req.SetHeader("mailbox-token", tok)
		}
		resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := forge(""); resp.Status != transport.StatusUnauthorized {
		t.Fatalf("tokenless ack: %d, want 401", resp.Status)
	}
	if resp := forge("not-the-token"); resp.Status != transport.StatusUnauthorized {
		t.Fatalf("forged-token ack: %d, want 401", resp.Status)
	}
	if n := f.gw.Mailbox().Pending("dev-1"); n != 1 {
		t.Fatalf("forged acks destroyed mail: %d pending, want 1", n)
	}
	// The real token still works.
	if resp := forge(f.gw.Mailbox().Touch("dev-1")); !resp.IsOK() {
		t.Fatalf("genuine token refused: %d %s", resp.Status, resp.Text())
	}
	if n := f.gw.Mailbox().Pending("dev-1"); n != 0 {
		t.Fatalf("genuine ack did not retire the entry: %d pending", n)
	}
}

// TestDispatchReturnsMailboxToken: the token reaches the device on a
// fresh-nonce dispatch response — and deliberately NOT on the
// idempotent replay of the same nonce, which is the path a
// wire-captured PI replayed by an attacker takes.
func TestDispatchReturnsMailboxToken(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		Source:      sub.Package.Source,
	}
	resp := f.dispatchPI(t, pi, true)
	tok := resp.GetHeader("mailbox-token")
	if !resp.IsOK() || tok == "" {
		t.Fatalf("dispatch response carries no mailbox token: %d %v", resp.Status, resp.Header)
	}
	// The same PI replayed answers idempotently (same agent id) but
	// carries NO token: an attacker replaying a captured upload must
	// not be handed the key to the victim's mailbox.
	retry := f.dispatchPI(t, pi, true)
	if !retry.IsOK() || retry.Text() != resp.Text() {
		t.Fatalf("retry = %d %q, want idempotent %q", retry.Status, retry.Text(), resp.Text())
	}
	if leaked := retry.GetHeader("mailbox-token"); leaked != "" {
		t.Fatalf("replay leaked the mailbox token %q", leaked)
	}
	if !f.gw.Mailbox().CheckToken("dev-1", tok) {
		t.Fatal("returned token does not validate")
	}
}

// TestFailedAdmissionReleasesNonce: an admission the GATEWAY fails
// (here: the shipped source does not compile) must release the
// consumed nonce — otherwise every retry of that upload answers 409
// forever and the device's offline queue wedges on an error that was
// never the device's fault.
func TestFailedAdmissionReleasesNonce(t *testing.T) {
	f := newMailboxFixture(t, nil)
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	nonce, err := wire.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	pi := &wire.PackedInformation{
		CodeID:      "echo",
		DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner:       "dev-1",
		Nonce:       nonce,
		Source:      "this is not mascript ((",
	}
	if resp := f.dispatchPI(t, pi, true); resp.Status != transport.StatusBadRequest {
		t.Fatalf("broken source: %d %s, want 400", resp.Status, resp.Text())
	}
	// The SAME nonce with the bug fixed goes through — the failed
	// admission did not burn it.
	pi.Source = sub.Package.Source
	if resp := f.dispatchPI(t, pi, true); !resp.IsOK() {
		t.Fatalf("retry after failed admission: %d %s, want 200", resp.Status, resp.Text())
	}
}

// TestEchoJourneyFsyncBudget pins what one steady-state echo journey —
// dispatch, result home, poll, ack — costs a gateway over two real
// group-commit WALs: the journal's admit and retire, and one ordered
// commit each for the mailbox's enqueue (entry + meta) and ack (cursor +
// delete). It is the count the journey benchmark reports as
// rms.fsyncs_per_journey.
func TestEchoJourneyFsyncBudget(t *testing.T) {
	open := func(name string) *rms.WALStore {
		s, err := rms.OpenWALStore(filepath.Join(t.TempDir(), name), rms.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	journal, mailbox := open("journal.wal"), open("mailbox.wal")
	f := newFixtureCfg(t, func(c *Config) {
		c.Journal = journal
		c.Mailbox = &MailboxConfig{Store: mailbox}
	})
	f.addEcho(t)
	var cursor uint64
	journey := func() {
		agentID := dispatchEcho(t, f, "dev-1")
		f.queue.Drain()
		entries, watermark, _ := pollMailbox(t, f, "dev-1", cursor)
		if len(entries) != 1 || entries[0].AgentID != agentID {
			t.Fatalf("poll after %s: %d entries", agentID, len(entries))
		}
		if entries, _, _ := pollMailbox(t, f, "dev-1", watermark); len(entries) != 0 {
			t.Fatalf("mail redelivered after ack: %d entries", len(entries))
		}
		cursor = watermark
	}
	journey() // the device's first journey also mints its mailbox token
	j, m := journal.Fsyncs(), mailbox.Fsyncs()
	journey()
	if gotJ, gotM := journal.Fsyncs()-j, mailbox.Fsyncs()-m; gotJ != 2 || gotM != 2 {
		t.Fatalf("echo journey cost %d journal + %d mailbox fsyncs, want 2 + 2", gotJ, gotM)
	}
	if n, _ := mailbox.NumRecords(); n != 1 {
		t.Fatalf("mailbox store holds %d records after the ack, want the meta record alone", n)
	}
}
