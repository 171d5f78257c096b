package gateway

import (
	"context"
	"errors"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/cluster"
	"pdagent/internal/compress"
	"pdagent/internal/mas"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/tenant"
	"pdagent/internal/transport"
	"pdagent/internal/wire"
)

// failingStore is a mailbox store whose commits fail while broken is
// set — a disk that is full, then is not.
type failingStore struct {
	rms.Store
	broken atomic.Bool
}

var errStoreBroken = errors.New("injected store failure")

func (s *failingStore) Apply(ops []rms.Op) ([]int, error) {
	if s.broken.Load() {
		return nil, errStoreBroken
	}
	return s.Store.Apply(ops)
}

// TestHomecomingNotAckedUntilResultStored: an agent comes home while
// the gateway cannot enqueue its result. The homecoming is refused
// retryably and no watermark is committed, so the journaled sender
// keeps its copy parked — it used to be acked, and the sender's only
// copy tombstoned, after a logged enqueue failure. The retry delivers,
// and the device sees exactly one result.
func TestHomecomingNotAckedUntilResultStored(t *testing.T) {
	store := &failingStore{Store: rms.NewMemStore("mailbox", 0)}
	f := newMailboxFixture(t, &MailboxConfig{Store: store})
	bankJournal := rms.NewMemStore("journal-bank", 0)
	bank, err := mas.NewServer(mas.Config{
		Addr: "bank-1", Codec: atp.AgletsCodec{}, Transport: f.net.Transport(netsim.ZoneWired),
		Spawn: f.queue.Go, Journal: bankJournal,
	})
	if err != nil {
		t.Fatal(err)
	}
	f.net.AddHost("bank-1", netsim.ZoneWired, bank.Handler())
	f.addPackage(t, "tour", `migrate("bank-1"); deliver("at", here());`)
	agentID := dispatchCode(t, f, "tour", "dev-1")

	store.broken.Store(true)
	f.queue.Drain()
	if got := bank.AgentStates()[agentID]; got != mas.StateParked {
		t.Fatalf("bank state = %q, want parked: the homecoming must not have been acked", got)
	}
	if st, _ := f.gw.Registry().Agent(agentID); st.Done {
		t.Fatal("gateway published a result it could not enqueue")
	}
	if n, _ := f.docs.NumRecords(); n != 1 {
		t.Fatalf("File Directory holds %d documents, want the request document alone", n)
	}
	if n := f.gw.Mailbox().Pending("dev-1"); n != 0 {
		t.Fatalf("%d mailbox entries while the store was failing", n)
	}

	store.broken.Store(false)
	if n := bank.RetryParked(context.Background()); n != 1 {
		t.Fatalf("RetryParked started %d retries, want 1", n)
	}
	f.queue.Drain()
	if got := bank.AgentStates()[agentID]; got != mas.StateDeparted {
		t.Fatalf("bank state after the retry = %q, want departed", got)
	}
	entries, watermark, _ := pollMailbox(t, f, "dev-1", 0)
	if len(entries) != 1 || entries[0].AgentID != agentID {
		t.Fatalf("device sees %d entries, want the one result", len(entries))
	}
	rd, err := wire.ParseResultDocument(entries[0].Body)
	if err != nil || !rd.OK() || rd.Hops != 1 {
		t.Fatalf("result = %+v (%v)", rd, err)
	}
	if again, _, _ := pollMailbox(t, f, "dev-1", watermark); len(again) != 0 {
		t.Fatalf("result delivered twice: %d entries", len(again))
	}
	if n, _ := f.docs.NumRecords(); n != 2 {
		t.Fatalf("File Directory holds %d documents, want request + result", n)
	}
}

// TestDispatchFailsWhenResultNotEnqueued: a zero-hop journey's result
// is enqueued inside its dispatch, so a refused enqueue fails the
// dispatch — the admission's ordinary failure path: tracking entry
// released, nonce forgotten, 5xx — and the device's retry of the same
// PI runs the journey. It used to answer OK and lose the result.
func TestDispatchFailsWhenResultNotEnqueued(t *testing.T) {
	store := &failingStore{Store: rms.NewMemStore("mailbox", 0)}
	f := newMailboxFixture(t, &MailboxConfig{Store: store})
	f.addEcho(t)
	sub := f.subscribe(t, "echo", "dev-1")
	nonce, err := wire.NewNonce()
	if err != nil {
		t.Fatal(err)
	}
	pi := &wire.PackedInformation{
		CodeID: "echo", DispatchKey: pisec.DispatchKey("echo", sub.Secret),
		Owner: "dev-1", Nonce: nonce, Source: sub.Package.Source,
	}
	f.gw.Mailbox().Touch("dev-1") // the token is minted before the store breaks

	store.broken.Store(true)
	resp := f.dispatchPI(t, pi, true)
	if resp.Status != transport.StatusServerError {
		t.Fatalf("dispatch with a failing mailbox store: %d %s, want 500", resp.Status, resp.Text())
	}
	if n := f.gw.Registry().InFlight(); n != 0 {
		t.Fatalf("in-flight after the failed dispatch = %d, want 0", n)
	}
	if n := f.gw.MAS().ResidentCount(); n != 0 {
		t.Fatalf("%d agents resident after the failed dispatch", n)
	}
	// The released agent's trace says what became of it: its result
	// document was stored (and withdrawn), the enqueue never happened,
	// the admission failed.
	var ops []string
	for _, sp := range f.gw.TraceRing().Spans("ag-gw-t-1") {
		ops = append(ops, sp.Op)
	}
	if got, want := strings.Join(ops, " "), "admit result admit-failed"; got != want {
		t.Fatalf("failed admission's trace reads %q, want %q", got, want)
	}

	store.broken.Store(false)
	resp = f.dispatchPI(t, pi, true)
	if !resp.IsOK() {
		t.Fatalf("retry of the same PI: %d %s", resp.Status, resp.Text())
	}
	entries, _, _ := pollMailbox(t, f, "dev-1", 0)
	if len(entries) != 1 || entries[0].AgentID != resp.Text() {
		t.Fatalf("device sees %d entries, want the retried journey's result alone", len(entries))
	}
}

// TestZeroHopJourneyWithoutMailboxIsNotJournaled: a gateway with a
// Journal and no mailbox treats an agent that finishes inside its
// admission as it has always treated a KindDone homecoming — the result
// goes to the File Directory and the journal holds no record of it
// (mas.Config.Journal says what that makes of durability).
func TestZeroHopJourneyWithoutMailboxIsNotJournaled(t *testing.T) {
	journal := rms.NewMemStore("journal", 0)
	f := newFixtureCfg(t, func(c *Config) { c.Journal = journal })
	f.addEcho(t)
	agentID := dispatchEcho(t, f, "dev-1")
	if n, _ := journal.NumRecords(); n != 0 {
		t.Fatalf("journal holds %d records, want none", n)
	}
	if next, _ := journal.NextID(); next != 1 {
		t.Fatalf("journal allocated %d record ids, want none ever written", next-1)
	}
	st, ok := f.gw.Registry().Agent(agentID)
	if !ok || !st.Done || f.queue.Len() != 0 {
		t.Fatalf("agent = %+v, %d queued task(s); want done with nothing spawned", st, f.queue.Len())
	}
	doc, err := f.docs.Get(st.DocID)
	if err != nil {
		t.Fatal(err)
	}
	if rd, err := wire.ParseResultDocument(doc); err != nil || !rd.OK() || rd.AgentID != agentID {
		t.Fatalf("File Directory document = %+v (%v)", rd, err)
	}
}

// TestForwardedZeroHopResultRelay: a dispatch uploaded at one member
// and homed on another runs its zero-hop journey inside the home's
// admission. The relay of its result to the edge leaves under Spawn —
// a best-effort push must not hold the forward's answer — so the edge
// may hear the result before or after the forward is answered and the
// agent registered. Either order ends the same: one mailbox entry at
// the edge, the agent done and homed on the other member, nothing in
// flight.
func TestForwardedZeroHopResultRelay(t *testing.T) {
	for _, tc := range []struct {
		name  string
		early bool // the home's Spawn runs the relay at once: it lands inside the forward
	}{
		{name: "relay after the forward is answered"},
		{name: "relay before the edge registers the agent", early: true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net := netsim.New(7)
			net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{})
			addrs := []string{"gw-a", "gw-b"}
			queue := &netsim.Queue{}
			gws := map[string]*Gateway{}
			// knownAtRelay: did the edge know the agent when its result
			// was relayed in?
			var relayed, knownAtRelay atomic.Int32
			for _, addr := range addrs {
				spawn := queue.Go
				if tc.early {
					spawn = func(fn func()) { fn() }
				}
				gw, err := New(Config{
					Addr:      addr,
					KeyPair:   testKeyPair(t),
					Transport: net.Transport(netsim.ZoneWired),
					Spawn:     spawn,
					Mailbox:   &MailboxConfig{Store: rms.NewMemStore("mailbox-"+addr, 0)},
					Cluster: cluster.NewNode(cluster.Config{
						Self:           addr,
						Seeds:          addrs,
						Transport:      net.Transport(netsim.ZoneWired),
						Secret:         "relay-secret",
						NoLocationPush: true,
					}),
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(gw.Close)
				if err := gw.AddCodePackage(&wire.CodePackage{CodeID: "echo", Name: "echo", Version: "1", Source: echoSrc}); err != nil {
					t.Fatal(err)
				}
				gws[addr] = gw
				net.AddHost(addr, netsim.ZoneWired, transport.HandlerFunc(
					func(ctx context.Context, req *transport.Request) *transport.Response {
						if req.Path == "/cluster/result" {
							relayed.Add(1)
							if _, ok := gw.Registry().Agent(req.GetHeader("agent")); ok {
								knownAtRelay.Add(1)
							}
						}
						return gw.Handler().Serve(ctx, req)
					}))
			}
			// An owner whose subscription key is homed on gw-b, uploading
			// at gw-a.
			owner := ""
			for i := 0; owner == ""; i++ {
				o := "dev-" + strconv.Itoa(i)
				if gws["gw-a"].cfg.Cluster.Home(cluster.SubscriptionKey("echo", o)) == "gw-b" {
					owner = o
				}
			}
			edge, home := gws["gw-a"], gws["gw-b"]
			secret := []byte("relay-sub-secret")
			edge.Registry().SetSecret("echo", owner, secret, tenant.DefaultID)
			pi := &wire.PackedInformation{
				CodeID: "echo", DispatchKey: pisec.DispatchKey("echo", secret),
				Owner: owner, Nonce: "n-relay", Source: echoSrc,
			}
			body, err := wire.Pack(pi, compress.LZSS, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := net.Transport(netsim.ZoneWireless).RoundTrip(context.Background(), "gw-a",
				&transport.Request{Path: "/pdagent/dispatch", Body: body})
			if err != nil || !resp.IsOK() {
				t.Fatalf("dispatch at the edge: %v %v", err, resp)
			}
			agentID := resp.GetHeader("agent")
			if !strings.HasPrefix(agentID, "ag-gw-b-") {
				t.Fatalf("agent %q not homed on gw-b", agentID)
			}
			if tc.early {
				if relayed.Load() != 1 || knownAtRelay.Load() != 0 {
					t.Fatalf("%d relay(s), %d to an edge that knew the agent; want the one relay ahead of the registration", relayed.Load(), knownAtRelay.Load())
				}
			} else {
				// The forward was answered with the relay still queued.
				if relayed.Load() != 0 || queue.Len() != 1 {
					t.Fatalf("%d relay(s) sent, %d task(s) queued when the dispatch answered; want the relay off the admission path", relayed.Load(), queue.Len())
				}
				queue.Drain()
				if relayed.Load() != 1 || knownAtRelay.Load() != 1 {
					t.Fatalf("%d relay(s), %d to an edge that knew the agent", relayed.Load(), knownAtRelay.Load())
				}
			}
			st, ok := edge.Registry().Agent(agentID)
			if !ok || !st.Done || st.HomeGW != "gw-b" || st.Owner != owner {
				t.Fatalf("edge's view of %s: %+v", agentID, st)
			}
			if n := edge.Registry().InFlight() + home.Registry().InFlight(); n != 0 {
				t.Fatalf("%d in flight after the journey", n)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if left := home.Drain(ctx); left != 0 {
				t.Fatalf("home drained with %d agent(s) or relay(s) left", left)
			}
			if es, hs := edge.Mailbox().Stats(), home.Mailbox().Stats(); es.Enqueued != 1 || es.Pending != 1 || hs.Enqueued != 0 {
				t.Fatalf("mailboxes: edge %+v, home %+v; want the one entry at the edge", es, hs)
			}
			// A retry of the same upload answers with the same agent.
			again, err := net.Transport(netsim.ZoneWireless).RoundTrip(context.Background(), "gw-a",
				&transport.Request{Path: "/pdagent/dispatch", Body: body})
			if err != nil || !again.IsOK() || again.GetHeader("agent") != agentID {
				t.Fatalf("retry of the upload: %v %v", err, again)
			}
		})
	}
}

// TestResultFiledTwiceKeepsOneDocument: the relay of a forwarded
// journey's result and the edge's on-demand fetch of it can both get
// past adoptResult's done check. The second copy is withdrawn from the
// File Directory as the mailbox drops its entry: the registry keeps
// pointing at the first document and nothing is orphaned.
func TestResultFiledTwiceKeepsOneDocument(t *testing.T) {
	f := newMailboxFixture(t, nil)
	rd := &wire.ResultDocument{AgentID: "ag-gw-peer-1", CodeID: "echo", Owner: "dev-1", Status: "done"}
	doc, err := rd.EncodeXML()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := f.gw.fileResult(rd, doc, "adopt-result", true); err != nil {
			t.Fatal(err)
		}
	}
	st, ok := f.gw.Registry().Agent(rd.AgentID)
	if !ok || !st.Done {
		t.Fatalf("agent after two filings: %+v", st)
	}
	if n, _ := f.docs.NumRecords(); n != 1 {
		t.Fatalf("File Directory holds %d documents, want the first copy alone", n)
	}
	if got, err := f.docs.Get(st.DocID); err != nil || string(got) != string(doc) {
		t.Fatalf("registry's document %d: %v", st.DocID, err)
	}
	if ms := f.gw.Mailbox().Stats(); ms.Enqueued != 1 {
		t.Fatalf("mailbox enqueued %d entries, want 1", ms.Enqueued)
	}
}
