package gateway

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
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
	return fetchMailbox(t, f, device, ack, 0)
}

// fetchMailbox is pollMailbox that long-polls when wait > 0, the way
// device.PollMailbox reads.
func fetchMailbox(t *testing.T, f *fixture, device string, ack uint64, wait time.Duration) (entries []*push.Entry, watermark, evicted uint64) {
	t.Helper()
	entries, watermark, evicted, err := tryFetchMailbox(f, device, ack, wait)
	if err != nil {
		t.Fatal(err)
	}
	return entries, watermark, evicted
}

// tryFetchMailbox is fetchMailbox for goroutines that may not call
// t.Fatal.
func tryFetchMailbox(f *fixture, device string, ack uint64, wait time.Duration) (entries []*push.Entry, watermark, evicted uint64, err error) {
	resp, err := readMailbox(f, "/pdagent/mailbox/poll", device, ack, wait)
	if err != nil {
		return nil, 0, 0, err
	}
	_, entries, watermark, evicted, _, _, err = push.ParseEntries(resp.Body)
	return entries, watermark, evicted, err
}

// readMailbox sends one mailbox read to path and returns the OK answer.
func readMailbox(f *fixture, path, device string, ack uint64, wait time.Duration) (*transport.Response, error) {
	req := &transport.Request{Path: path}
	if wait > 0 {
		req.SetHeader("wait", wait.String())
	}
	req.SetHeader("device", device)
	req.SetHeader("ack", strconv.FormatUint(ack, 10))
	// Touch mints (or returns) the token the device would have received
	// on its authenticated dispatch.
	req.SetHeader("mailbox-token", f.gw.Mailbox().Touch(device))
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if err != nil {
		return nil, err
	}
	if !resp.IsOK() {
		return nil, fmt.Errorf("mailbox read at %s: %d %s", path, resp.Status, resp.Text())
	}
	return resp, nil
}

// TestBarePathIsTheSameRead: a read sent to /pdagent/mailbox, where
// devices built before every read went to /poll send theirs, gets the
// same answer, byte for byte, and the same ack effect as one sent to
// /pdagent/mailbox/poll — with and without a wait. The ack is staged
// while mail goes out and committed by the answer that goes out empty.
func TestBarePathIsTheSameRead(t *testing.T) {
	for _, wait := range []time.Duration{0, time.Millisecond} {
		type step struct {
			body  []byte
			stats push.Stats
			recs  int
		}
		run := func(path string) (steps []step, scrape string) {
			store := rms.NewMemStore("mbx", 0)
			f := newMailboxFixture(t, &MailboxConfig{Store: store})
			hub := f.gw.Mailbox()
			for i := 1; i <= 3; i++ {
				agent := "ag-" + strconv.Itoa(i)
				if _, _, err := hub.Enqueue("dev-1", push.KindResult, agent, "result:"+agent, []byte("<r/>")); err != nil {
					t.Fatal(err)
				}
			}
			for _, ack := range []uint64{0, 2, 3} {
				resp, err := readMailbox(f, path, "dev-1", ack, wait)
				if err != nil {
					t.Fatal(err)
				}
				n, _ := store.NumRecords()
				steps = append(steps, step{body: resp.Body, stats: hub.Stats(), recs: n})
			}
			return steps, string(f.gw.Metrics().AppendPrometheus(nil))
		}
		bare, bareScrape := run("/pdagent/mailbox")
		poll, pollScrape := run("/pdagent/mailbox/poll")
		for i := range poll {
			if !bytes.Equal(bare[i].body, poll[i].body) || bare[i].stats != poll[i].stats || bare[i].recs != poll[i].recs {
				t.Fatalf("wait %v, read %d: bare path answered %q (%+v, %d records), /poll %q (%+v, %d records)",
					wait, i, bare[i].body, bare[i].stats, bare[i].recs, poll[i].body, poll[i].stats, poll[i].recs)
			}
		}
		// Read 2 (ack 2) stages its ack while entry 3 goes out; read 3
		// (ack 3) answers empty and commits both.
		if st := poll[1].stats; st.StagedAcks != 1 || st.AcksFlushed != 0 {
			t.Fatalf("wait %v: after the ack with mail going out: %+v, want it staged", wait, st)
		}
		if st, recs := poll[2].stats, poll[2].recs; st.StagedAcks != 0 || st.AcksFlushed != 2 || st.Pending != 0 || recs != 1 {
			t.Fatalf("wait %v: after the empty answer: %+v, %d records; want both acks committed, the meta record alone", wait, st, recs)
		}
		// Four entries went out (entry 3 twice: read 2 acked only 2), all
		// under the row the wait picks.
		via := "fetch"
		if wait > 0 {
			via = "poll"
		}
		row := fmt.Sprintf("pdagent_mailbox_delivered_total{via=%q} 4\n", via)
		if !strings.Contains(bareScrape, row) || !strings.Contains(pollScrape, row) {
			t.Fatalf("wait %v: a scrape lacks %q", wait, row)
		}
	}
}

// dispatchEcho subscribes and dispatches one echo journey, returning
// the agent id (journey already over: its result is in the mailbox).
func dispatchEcho(t *testing.T, f *fixture, owner string) string {
	t.Helper()
	return dispatchCode(t, f, "echo", owner)
}

// dispatchCode subscribes owner to a registered package and dispatches
// one journey of it, returning the agent id.
func dispatchCode(t *testing.T, f *fixture, codeID, owner string) string {
	t.Helper()
	sub := f.subscribe(t, codeID, owner)
	pi := &wire.PackedInformation{
		CodeID:      codeID,
		DispatchKey: pisec.DispatchKey(codeID, sub.Secret),
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
	f.addSlowEcho(t)
	agentID := dispatchCode(t, f, "slow", "dev-1")

	// Nothing yet: the journey has not finished.
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

// TestResultTTLSweep: the shared sweeper reclaims expired result
// documents from the File Directory, flips the agent to the terminal
// expired state, and leaves a visible status note in the owner's
// mailbox.
func TestResultTTLSweep(t *testing.T) {
	f := newMailboxFixture(t, &MailboxConfig{ResultTTL: time.Nanosecond})
	f.addEcho(t)
	agentID := dispatchEcho(t, f, "dev-1")
	f.queue.Drain()

	if n, _ := f.docs.NumRecords(); n != 1 {
		t.Fatalf("documents before sweep = %d, want the result alone", n)
	}
	time.Sleep(2 * time.Millisecond) // let the 1ns TTL elapse
	results, _ := f.gw.Sweep()
	if results != 1 || f.gw.ResultsSwept() != 1 {
		t.Fatalf("sweep reclaimed %d (counter %d), want 1", results, f.gw.ResultsSwept())
	}
	if n, _ := f.docs.NumRecords(); n != 0 {
		t.Fatalf("documents after sweep = %d, want 0 (result reclaimed)", n)
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

// TestEchoJourneyFsyncBudget pins what one steady-state echo journey
// costs a gateway over two real group-commit WALs; it is the count the
// journey benchmark reports as rms.fsyncs_per_journey. The agent finishes
// inside its admission, so the journal is never written: the result's
// mailbox commit is the durable hand-over. A session device makes the
// mailbox pay one ordered commit each for the enqueue (entry + meta)
// and the ack (cursor + delete): its drain stages the ack and the
// drain's last, empty read commits it. A long-polling device pays one: its
// ack rides the next long-poll, is staged there, and shares the next
// journey's enqueue commit (cursor + delete + entry + meta). The enqueue
// precedes the poll, so the ack it folds is the one before last: a
// mailbox at rest holds the entry before the current one too, its ack
// staged. The parked row is an agent that suspends: the poll parks
// ahead of the result with the ack staged, the enqueue that wakes it
// commits that ack, and the journal pays for its record — the record's
// drop is a trailing append and rides the next journey's record.
// A device answered in its dispatch (token and cursor on the upload, from
// its second journey on) makes one request: the ack is staged ahead of
// the admission, so the enqueue folds the ack of the entry just before
// its own and the mailbox at rest holds the entry just delivered alone.
func TestEchoJourneyFsyncBudget(t *testing.T) {
	for _, tc := range []struct {
		name        string
		code        string
		wait        time.Duration
		inDispatch  bool // ask for the mail on the upload once the token is held
		wantJournal uint64
		wantMailbox uint64
		wantStaged  int // acks staged, uncommitted, when the journey is over
		wantResting int // mailbox records then
	}{
		{name: "session", code: "echo", wantMailbox: 2, wantResting: 1},
		{name: "long-poll", code: "echo", wait: 30 * time.Second, wantMailbox: 1, wantStaged: 1, wantResting: 3},
		{name: "long-poll parked", code: "slow", wait: 30 * time.Second, wantJournal: 1, wantMailbox: 1, wantResting: 2},
		{name: "answered in dispatch", code: "echo", wait: 30 * time.Second, inDispatch: true, wantMailbox: 1, wantResting: 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			journal, mailbox := openTestWAL(t, "journal.wal"), openTestWAL(t, "mailbox.wal")
			f := newFixtureCfg(t, func(c *Config) {
				c.Journal = journal
				c.Mailbox = &MailboxConfig{Store: mailbox}
			})
			f.addEcho(t)
			f.addSlowEcho(t)
			hub := f.gw.Mailbox()
			var cursor uint64
			journey := func() {
				var agentID string
				var entries []*push.Entry
				var watermark uint64
				if tc.inDispatch && cursor > 0 {
					// One request: the upload carries the previous journey's
					// ack, the answer carries this journey's result.
					sub := f.subscribe(t, tc.code, "dev-1")
					before := f.net.Stats().Messages
					resp := upload(t, f, f.packPI(t, f.echoPI(sub, "dev-1"), false), asking(hub.TokenOf("dev-1"), cursor))
					if n := f.net.Stats().Messages - before; n != 1 {
						t.Fatalf("the journey took %d requests, want 1", n)
					}
					agentID, entries, watermark = wantMail(t, resp)
				} else if agentID = dispatchCode(t, f, tc.code, "dev-1"); f.queue.Len() == 0 {
					// The result is in the mailbox when the dispatch answers:
					// a long-poll carrying the previous journey's ack stages
					// it and returns at once, without parking.
					entries, watermark, _ = fetchMailbox(t, f, "dev-1", cursor, tc.wait)
				} else {
					// The agent suspended: the device is parked on its
					// long-poll, the previous journey's ack staged, when
					// the result comes home.
					done := make(chan struct{})
					go func() {
						defer close(done)
						var err error
						if entries, watermark, _, err = tryFetchMailbox(f, "dev-1", cursor, tc.wait); err != nil {
							t.Error(err)
						}
					}()
					wantStaged := 0
					if cursor > 0 {
						wantStaged = 1 // the first journey has nothing to acknowledge
					}
					for deadline := time.Now().Add(5 * time.Second); !hub.Connected("dev-1") || hub.Stats().StagedAcks != wantStaged; {
						if time.Now().After(deadline) {
							t.Fatal("long-poll never parked")
						}
						time.Sleep(time.Millisecond)
					}
					f.queue.Drain()
					<-done
				}
				if len(entries) != 1 || entries[0].AgentID != agentID {
					t.Fatalf("poll after %s: %d entries", agentID, len(entries))
				}
				if tc.wait == 0 {
					if again, _, _ := pollMailbox(t, f, "dev-1", watermark); len(again) != 0 {
						t.Fatalf("mail redelivered after ack: %d entries", len(again))
					}
				}
				cursor = watermark
			}
			journey() // the device's first journey also mints its mailbox token
			journey() // and a long-polling device's second is the first with an ack to fold
			j, m, st := journal.Fsyncs(), mailbox.Fsyncs(), hub.Stats()
			journey()
			if gotJ, gotM := journal.Fsyncs()-j, mailbox.Fsyncs()-m; gotJ != tc.wantJournal || gotM != tc.wantMailbox {
				t.Fatalf("%s journey cost %d journal + %d mailbox fsyncs, want %d + %d", tc.code, gotJ, gotM, tc.wantJournal, tc.wantMailbox)
			}
			if n, _ := journal.NumRecords(); n != 0 {
				t.Fatalf("journal holds %d records after finished journeys, want none", n)
			}
			if tc.code == "echo" && journal.Fsyncs() != 0 {
				t.Fatalf("journal committed %d times for zero-hop journeys, want never written", journal.Fsyncs())
			}
			if f.queue.Len() != 0 {
				t.Fatalf("%d task(s) left spawned after finished journeys", f.queue.Len())
			}
			after := hub.Stats()
			folded, flushed := after.AcksFolded-st.AcksFolded, after.AcksFlushed-st.AcksFlushed
			if tc.wait == 0 && (folded != 0 || flushed != 1 || after.StagedAcks != 0) {
				t.Fatalf("session journey: %d folded, %d flushed, %d staged; want its one ack committed on its own", folded, flushed, after.StagedAcks)
			}
			if tc.wait > 0 && (folded != 1 || flushed != 0 || after.StagedAcks != tc.wantStaged) {
				t.Fatalf("long-poll journey: %d folded, %d flushed, %d staged; want the previous ack folded into the enqueue and %d staged", folded, flushed, after.StagedAcks, tc.wantStaged)
			}
			// The session ended fully acknowledged. The long-polling device
			// still owes the ack of what it just received, and where the
			// poll followed the enqueue the ack before that one is staged,
			// not yet committed — until the device's next enqueue or, here,
			// the first fetch of a session.
			if n, _ := mailbox.NumRecords(); n != tc.wantResting {
				t.Fatalf("mailbox store holds %d records at rest, want %d (meta, the entry just delivered, the one whose ack is staged)", n, tc.wantResting)
			}
			if tc.wait > 0 {
				pollMailbox(t, f, "dev-1", cursor)
			}
			if n, _ := mailbox.NumRecords(); n != 1 {
				t.Fatalf("mailbox store holds %d records after the ack, want the meta record alone", n)
			}
		})
	}

	// The e-banking shape: an agent that suspends at migrate is journaled
	// once in its admission — the admit record and the departure record
	// are the same snapshot — before the transfer leaves.
	t.Run("migrating", func(t *testing.T) {
		journal := openTestWAL(t, "journal.wal")
		f := newFixtureCfg(t, func(c *Config) { c.Journal = journal })
		f.addSite(t, "site-1")
		f.addPackage(t, "tour", `migrate("site-1"); deliver("host", here());`)
		agentID := dispatchCode(t, f, "tour", "dev-1")
		if got := journal.Fsyncs(); got != 1 {
			t.Fatalf("admitting a migrating agent cost %d journal fsyncs, want exactly 1", got)
		}
		if n, _ := journal.NumRecords(); n != 1 || f.queue.Len() != 1 {
			t.Fatalf("after admission: %d journal record(s), %d queued task(s); want the departure record and the transfer not yet sent", n, f.queue.Len())
		}
		f.queue.Drain()
		if st, ok := f.gw.Registry().Agent(agentID); !ok || !st.Done {
			t.Fatalf("journey did not complete: %+v", st)
		}
		// The rest of the journey at the gateway: the departure record
		// dropped on the site's ack, the homecoming's dedup tombstone —
		// both trailing appends, durable with the journal's next commit.
		if st := journal.Stats(); st.Fsyncs != 1 || st.TrailingOps != 2 {
			t.Fatalf("one-hop journey cost the gateway %d journal fsyncs and %d trailing ops, want 1 and 2", st.Fsyncs, st.TrailingOps)
		}
	})
}

func openTestWAL(t *testing.T, name string) *rms.WALStore {
	t.Helper()
	s, err := rms.OpenWALStore(filepath.Join(t.TempDir(), name), rms.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestLongPollEndingEmptyCommitsAck: a long-poll that has no mail to
// hand over keeps nobody waiting, so it commits the ack it carried
// before answering — an idle device's acks do not sit in memory until
// its next enqueue.
func TestLongPollEndingEmptyCommitsAck(t *testing.T) {
	store := rms.NewMemStore("mbx", 0)
	f := newMailboxFixture(t, &MailboxConfig{Store: store})
	hub := f.gw.Mailbox()
	if _, _, err := hub.Enqueue("dev-1", push.KindResult, "ag-1", "result:ag-1", []byte("<r/>")); err != nil {
		t.Fatal(err)
	}
	entries, watermark, _ := fetchMailbox(t, f, "dev-1", 0, time.Millisecond)
	if len(entries) != 1 || watermark != 1 {
		t.Fatalf("long-poll = %d entries, watermark %d", len(entries), watermark)
	}
	if entries, _, _ := fetchMailbox(t, f, "dev-1", watermark, time.Millisecond); len(entries) != 0 {
		t.Fatalf("mail redelivered after ack: %d entries", len(entries))
	}
	if st := hub.Stats(); st.StagedAcks != 0 || st.AcksFlushed != 1 {
		t.Fatalf("after the empty long-poll: %d staged, %d flushed; want the ack committed", st.StagedAcks, st.AcksFlushed)
	}
	if n, _ := store.NumRecords(); n != 1 {
		t.Fatalf("store holds %d records, want the meta record alone", n)
	}
}

// TestOldDeviceConfirmRoundStillCommits: a device built before the ack
// moved off the critical path follows every long-poll delivery with a
// confirming /pdagent/mailbox fetch. Against this gateway that round
// still works: its answer is empty, so it commits the ack.
func TestOldDeviceConfirmRoundStillCommits(t *testing.T) {
	store := rms.NewMemStore("mbx", 0)
	f := newMailboxFixture(t, &MailboxConfig{Store: store})
	hub := f.gw.Mailbox()
	var cursor uint64
	for i := 1; i <= 3; i++ {
		agent := "ag-" + strconv.Itoa(i)
		if _, _, err := hub.Enqueue("dev-1", push.KindResult, agent, "result:"+agent, []byte("<r/>")); err != nil {
			t.Fatal(err)
		}
		entries, watermark, _ := fetchMailbox(t, f, "dev-1", cursor, 30*time.Second)
		if len(entries) != 1 || entries[0].AgentID != agent {
			t.Fatalf("journey %d: long-poll delivered %+v", i, entries)
		}
		cursor = watermark
		resp, err := readMailbox(f, "/pdagent/mailbox", "dev-1", cursor, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, entries, watermark, _, _, _, err := push.ParseEntries(resp.Body); err != nil || len(entries) != 0 || watermark != cursor {
			t.Fatalf("journey %d: confirm round = %d entries, watermark %d, %v", i, len(entries), watermark, err)
		}
		if n, _ := store.NumRecords(); n != 1 || hub.Stats().StagedAcks != 0 {
			t.Fatalf("journey %d: %d record(s), %d staged ack(s) after the confirm round, want the meta record alone", i, n, hub.Stats().StagedAcks)
		}
	}
	if st := hub.Stats(); st.AcksFlushed != 3 || st.AcksFolded != 0 {
		t.Fatalf("%d flushed, %d folded; want every ack committed by its confirm round", st.AcksFlushed, st.AcksFolded)
	}
}

// TestMailboxAckRaces runs everything that can commit a device's acks
// at once — its long-poll, its session fetches, its uploads (each
// carrying an ack and bringing mail back), enqueues, the sweeper and,
// half-way, the hub's Close — and then reads the store the way a
// restart would: every entry was enqueued once and delivered, and
// nothing acknowledged is still on disk. Under -race it is the proof
// that a staged ack is never committed twice or dropped between two
// committers.
func TestMailboxAckRaces(t *testing.T) {
	store := rms.NewMemStore("mbx", 0)
	f := newMailboxFixture(t, &MailboxConfig{Store: store, DedupTTL: -1})
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	hub := f.gw.Mailbox()
	const enqueues, uploads = 200, 50
	const total = enqueues + uploads // every upload's journey enqueues its result

	// One device, one durable cursor, three code paths reading through it.
	var mu sync.Mutex
	var cursor uint64
	seen := map[uint64]bool{}
	consume := func(fetch func(ack uint64) (entries []*push.Entry, watermark uint64, err error)) {
		mu.Lock()
		ack := cursor
		mu.Unlock()
		entries, watermark, err := fetch(ack)
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Error(err)
		}
		for _, e := range entries {
			if e.Seq <= ack {
				t.Errorf("seq %d delivered to a poll that acked %d", e.Seq, ack)
			}
			seen[e.Seq] = true
		}
		cursor = max(cursor, watermark)
	}
	seenAtLeast := func(n int) bool {
		mu.Lock()
		defer mu.Unlock()
		return len(seen) >= n
	}

	var wg sync.WaitGroup
	run := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn()
		}()
	}
	tok := hub.Touch("dev-1")
	run(func() {
		for i := 1; i <= enqueues; i++ {
			agent := "ag-" + strconv.Itoa(i)
			if _, _, err := hub.Enqueue("dev-1", push.KindResult, agent, "result:"+agent, []byte("<r/>")); err != nil {
				t.Error(err)
				return
			}
		}
	})
	mailbox := func(wait time.Duration) func(uint64) ([]*push.Entry, uint64, error) {
		return func(ack uint64) ([]*push.Entry, uint64, error) {
			entries, watermark, _, err := tryFetchMailbox(f, "dev-1", ack, wait)
			return entries, watermark, err
		}
	}
	for _, wait := range []time.Duration{time.Millisecond, 0} {
		run(func() {
			for !seenAtLeast(total) && !t.Failed() {
				consume(mailbox(wait))
			}
		})
	}
	bodies := make([][]byte, uploads)
	for i := range bodies {
		bodies[i] = f.packPI(t, f.echoPI(sub, "dev-1"), false)
	}
	run(func() {
		for _, body := range bodies {
			consume(func(ack uint64) ([]*push.Entry, uint64, error) {
				resp, err := tryUpload(f, body, asking(tok, ack))
				if err != nil || !resp.IsOK() {
					return nil, 0, fmt.Errorf("upload: %v %v", resp, err)
				}
				// A concurrent reader may have taken everything, this
				// journey's result included: then the answer is the plain one.
				_, entries, watermark, _, _, _, err := push.ParseEntries(resp.Body)
				if err != nil {
					return nil, ack, nil
				}
				return entries, watermark, nil
			})
		}
	})
	run(func() {
		for !seenAtLeast(total/2) && !t.Failed() {
			time.Sleep(100 * time.Microsecond)
		}
		hub.Close() // polls no longer park, and acks commit as they arrive
	})
	stop := make(chan struct{})
	swept := make(chan struct{})
	go func() {
		defer close(swept)
		for {
			select {
			case <-stop:
				return
			default:
				f.gw.Sweep()
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-swept
	consume(mailbox(time.Millisecond)) // the last batch's ack, on a closed hub

	st := hub.Stats()
	if st.Enqueued != total || st.Delivered != total || st.Pending != 0 || st.StagedAcks != 0 {
		t.Fatalf("ledger after the race: %+v", st)
	}
	if n, _ := store.NumRecords(); n != 1 {
		t.Fatalf("store holds %d records after Close, want the meta record alone", n)
	}
	reopened, err := push.NewHub(push.Config{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if left := reopened.Export("dev-1"); len(left) != 0 {
		t.Fatalf("a restart would re-offer %d acknowledged entries", len(left))
	}
}
