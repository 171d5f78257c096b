package core

import (
	"context"
	"path/filepath"
	"testing"
	"time"

	"pdagent/internal/atp"
	"pdagent/internal/compress"
	"pdagent/internal/device"
	"pdagent/internal/gateway"
	"pdagent/internal/mas"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/services"
)

// TestEBankJourneyFsyncBudget pins what the paper's evaluation journey
// (gateway → bank A → bank B → migrate(home()), a long-polling device)
// costs in durable commits, over real WAL stores: every server the agent
// enters journals it once, at the suspension point its first slice there
// ends in and with its destination, and waits for that commit; the
// record's retirement is a trailing append that rides the server's next
// commit and costs no fsync of its own.
//
//	                 fsyncs  waited for             trailing (rides the next)
//	gateway journal    1     admit-with-destination drop on bank A's ack · the
//	                                                homecoming's dedup tombstone
//	gateway mailbox    1     the result's enqueue (folding the previous ack)
//	each bank          1     arrival-with-destination  tombstone on the ack
//
// Four in all, every one in series on the path the handheld waits for
// (admit · bank A · bank B · enqueue) and each the only durable copy of
// the agent or its result at that moment; the homecoming leaves no
// record of the agent at the gateway at all.
func TestEBankJourneyFsyncBudget(t *testing.T) {
	openWAL := func(name string) *rms.WALStore {
		t.Helper()
		s, err := rms.OpenWALStore(filepath.Join(t.TempDir(), name), rms.WALOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	net := netsim.New(7)
	net.SetLinkBoth(netsim.ZoneWired, netsim.ZoneWired, netsim.Link{})
	queue := &netsim.Queue{}
	tr := net.Transport(netsim.ZoneWired)

	kp, err := pisec.GenerateKeyPair(1024)
	if err != nil {
		t.Fatal(err)
	}
	gwJournal, gwMailbox := openWAL("gw.journal"), openWAL("gw.mailbox")
	gw, err := gateway.New(gateway.Config{
		Addr: "gw-0", KeyPair: kp, Transport: tr, Spawn: queue.Go,
		Journal: gwJournal, Mailbox: &gateway.MailboxConfig{Store: gwMailbox},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer gw.Close()
	if err := RegisterStandardApps(gw); err != nil {
		t.Fatal(err)
	}
	net.AddHost("gw-0", netsim.ZoneWired, gw.Handler())

	type bank struct {
		srv     *mas.Server
		journal *rms.WALStore
	}
	banks := map[string]*bank{}
	for _, addr := range []string{"bank-a", "bank-b"} {
		reg := services.NewRegistry()
		reg.Register(services.NewBank(addr, map[string]int64{"alice": 10_000, "bob": 5_000}).Services()...)
		b := &bank{journal: openWAL(addr + ".journal")}
		b.srv, err = mas.NewServer(mas.Config{
			Addr: addr, Codec: atp.AgletsCodec{}, Transport: tr, Services: reg,
			Spawn: queue.Go, Journal: b.journal,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.AddHost(addr, netsim.ZoneWired, b.srv.Handler())
		banks[addr] = b
	}

	dev, err := device.NewPlatform(device.Config{Owner: "dev-1", Transport: tr, Codec: compress.LZSS, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetGateways([]string{"gw-0"}); err != nil {
		t.Fatal(err)
	}
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	if err := dev.Subscribe(ctx, "gw-0", AppEBanking); err != nil {
		t.Fatal(err)
	}

	// held: the bank's journal grew by exactly one record since the
	// journey began and that record is (live) or is no longer (retired)
	// the resident agent's — one live record between the bank's OK and
	// the next hop's ack, its tombstone afterwards.
	held := func(b *bank, before int, live bool, when string) {
		t.Helper()
		n, _ := b.journal.NumRecords()
		resident := b.srv.ResidentCount() == 1
		if n != before+1 || resident != live {
			t.Fatalf("%s: %s's journal holds %d new record(s), resident %v; want 1, %v",
				when, b.srv.Addr(), n-before, resident, live)
		}
	}
	journey := func() {
		t.Helper()
		a0, _ := banks["bank-a"].journal.NumRecords()
		b0, _ := banks["bank-b"].journal.NumRecords()
		agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 2))
		if err != nil {
			t.Fatalf("Dispatch: %v", err)
		}
		polled := make(chan []device.Delivery, 1)
		go func() {
			ds, _, err := dev.PollMailbox(ctx, "gw-0", 30*time.Second)
			if err != nil {
				t.Error(err)
			}
			polled <- ds
		}()
		for deadline := time.Now().Add(5 * time.Second); !gw.Mailbox().Connected("dev-1"); {
			if time.Now().After(deadline) {
				t.Fatal("long-poll never parked")
			}
			time.Sleep(time.Millisecond)
		}
		queue.Step() // the gateway ships to bank A and drops its record on the ack
		held(banks["bank-a"], a0, true, "after bank A's OK")
		queue.Step() // bank A ships to bank B
		held(banks["bank-a"], a0, false, "after bank B's OK")
		held(banks["bank-b"], b0, true, "after bank B's OK")
		queue.Step() // bank B ships home: the result is enqueued inside that handoff
		held(banks["bank-b"], b0, false, "after the gateway's OK")
		ds := <-polled
		if len(ds) != 1 || ds[0].AgentID != agentID || ds[0].Result == nil || !ds[0].Result.OK() {
			t.Fatalf("long-poll delivered %+v, want %s's result", ds, agentID)
		}
		queue.Drain()
		// At rest every server holds one tombstone per finished journey
		// and nothing else.
		if n, _ := gwJournal.NumRecords(); n != a0+1 || gw.MAS().ResidentCount() != 0 {
			t.Fatalf("gateway journal holds %d records after %d journeys (%d resident), want one tombstone each",
				n, a0+1, gw.MAS().ResidentCount())
		}
	}
	journey() // mints the device's mailbox token
	journey() // the first with an ack to fold into the enqueue
	stores := [4]*rms.WALStore{gwJournal, gwMailbox, banks["bank-a"].journal, banks["bank-b"].journal}
	counts := func() (fsyncs, own [4]uint64) {
		for i, st := range stores {
			fsyncs[i], own[i] = st.Fsyncs(), st.Stats().TrailingSyncs
		}
		return
	}
	// A store syncs its trailing tail itself when the bound expires; a
	// journey that one of those lands in is measured again.
	for attempt := 0; ; attempt++ {
		before, ownBefore := counts()
		journey()
		after, ownAfter := counts()
		if ownAfter != ownBefore && attempt < 5 {
			continue
		}
		var got [4]uint64
		for i := range got {
			got[i] = after[i] - before[i]
		}
		if want := [4]uint64{1, 1, 1, 1}; got != want {
			t.Fatalf("e-banking journey cost %v fsyncs (gateway journal, gateway mailbox, bank A, bank B), want %v — 4 in all", got, want)
		}
		break
	}
	// The retirements were appended, in order, and nothing waited for them.
	for i, st := range stores {
		if i != 1 && st.Stats().TrailingOps == 0 {
			t.Fatalf("store %d saw no trailing append: retirements are paying for commits", i)
		}
	}
}
