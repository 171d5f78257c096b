package churnsim

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"

	"pdagent/internal/cluster"
	"pdagent/internal/gateway"
	"pdagent/internal/netsim"
	"pdagent/internal/push"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

// TestStormRace10k is the concurrency storm (run it with -race): 10k
// devices reconnect simultaneously against a 3-member cluster with
// real goroutines — half the fleet's mailboxes migrate between members
// under concurrent pulls, the other half parks long-polls and is woken
// by enqueues — and the ledger must come out exactly-once with no
// long-poll wakeup lost.
//
// No netsim clocks are attached, so simulated link delays cost nothing
// and the test is pure scheduler pressure.
func TestStormRace10k(t *testing.T) {
	const (
		devices = 10_000
		members = 3
	)
	kp, err := stormKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	net := netsim.New(99)
	addrs := make([]string, members)
	for i := range addrs {
		addrs[i] = "gw-" + strconv.Itoa(i)
	}
	gws := make([]*gateway.Gateway, members)
	for i, addr := range addrs {
		gw, err := gateway.New(gateway.Config{
			Addr:      addr,
			KeyPair:   kp,
			Transport: net.Transport(netsim.ZoneWired),
			Mailbox:   &gateway.MailboxConfig{Store: rms.NewMemStore("race-"+addr, 0)},
			Cluster: cluster.NewNode(cluster.Config{
				Self:      addr,
				Seeds:     addrs,
				Transport: net.Transport(netsim.ZoneWired),
				Secret:    "race-secret",
			}),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer gw.Close()
		net.AddHost(addr, netsim.ZoneWired, gw.Handler())
		gws[i] = gw
	}

	// Cold half: mailboxes pre-filled at member 0; the device reconnects
	// through members 1/2 and the mailbox must chase it. Parked half:
	// empty mailboxes at the device's own edge; a long-poll parks and
	// must be woken by the enqueue.
	cold := devices / 2
	tokens := make([]string, devices)
	for d := 0; d < devices; d++ {
		dev := "dev-" + strconv.Itoa(d)
		if d < cold {
			tokens[d] = gws[0].Mailbox().Touch(dev)
			if _, dup, err := gws[0].Mailbox().Enqueue(dev, push.KindResult, "ag-"+dev, "race:"+dev, churnBody); err != nil || dup {
				t.Fatalf("preload %s: dup=%v err=%v", dev, dup, err)
			}
		} else {
			tokens[d] = gws[1+d%2].Mailbox().Touch(dev)
		}
	}

	var (
		ledMu sync.Mutex
		led   = newLedger()
	)
	for d := 0; d < cold; d++ {
		led.enqueue("race:" + devName(d))
	}

	tr := net.Transport(netsim.ZoneWireless)
	ctx := context.Background()
	var wg sync.WaitGroup
	errs := make(chan error, devices)

	// Cold fleet: three concurrent non-acking polls per device (the
	// retry herd — they must coalesce on one migration pull), then one
	// fetch+ack session that consumes the mail.
	for d := 0; d < cold; d++ {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := devName(d)
			edge := addrs[1+d%2]
			var herd sync.WaitGroup
			for i := 0; i < 3; i++ {
				herd.Add(1)
				go func() {
					defer herd.Done()
					entries, _, err := raceMailboxPoll(ctx, tr, edge, dev, tokens[d], addrs[0], 0)
					if err != nil {
						errs <- err
						return
					}
					if len(entries) != 1 {
						errs <- errStorm(dev, "herd poll returned %d entries, want 1", len(entries))
					}
				}()
			}
			herd.Wait()
			entries, watermark, err := raceMailboxPoll(ctx, tr, edge, dev, tokens[d], addrs[0], 0)
			if err != nil {
				errs <- err
				return
			}
			ledMu.Lock()
			for _, e := range entries {
				led.deliver(e.EventID)
			}
			ledMu.Unlock()
			if rest, _, err := raceMailboxPoll(ctx, tr, edge, dev, tokens[d], "", watermark); err != nil {
				errs <- err
			} else if len(rest) != 0 {
				errs <- errStorm(dev, "%d entries after ack", len(rest))
			}
		}()
	}

	// Parked fleet: the long-poll goes up before any mail exists; the
	// enqueue below must wake it (an empty response here means a lost
	// wakeup — the poll would have parked the full 30s and timed out
	// via the harness deadline long before that).
	parkedReady := make(chan struct{}, devices-cold)
	for d := cold; d < devices; d++ {
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			dev := devName(d)
			edge := addrs[1+d%2]
			req := &transport.Request{Path: "/pdagent/mailbox/poll"}
			req.SetHeader("device", dev)
			req.SetHeader("mailbox-token", tokens[d])
			req.SetHeader("ack", "0")
			req.SetHeader("wait", "30s")
			parkedReady <- struct{}{}
			resp, err := tr.RoundTrip(ctx, edge, req)
			if err != nil {
				errs <- err
				return
			}
			_, entries, watermark, _, _, _, err := push.ParseEntries(resp.Body)
			if err != nil {
				errs <- err
				return
			}
			if len(entries) != 1 {
				errs <- errStorm(dev, "long-poll woke with %d entries (lost wakeup)", len(entries))
				return
			}
			ledMu.Lock()
			led.deliver(entries[0].EventID)
			ledMu.Unlock()
			if rest, _, err := raceMailboxPoll(ctx, tr, edge, dev, tokens[d], "", watermark); err != nil {
				errs <- err
			} else if len(rest) != 0 {
				errs <- errStorm(dev, "%d entries after ack", len(rest))
			}
		}()
	}

	// Wait for every parked goroutine to be launched, give the polls a
	// moment to actually park, then fire the wake enqueues. (A poll
	// that has not parked yet still cannot lose the wakeup: Wait hands
	// back a closed channel when mail is already pending.)
	for i := 0; i < devices-cold; i++ {
		<-parkedReady
	}
	time.Sleep(50 * time.Millisecond)
	for d := cold; d < devices; d++ {
		dev := devName(d)
		event := "race:" + dev
		if _, dup, err := gws[1+d%2].Mailbox().Enqueue(dev, push.KindResult, "ag-"+dev, event, churnBody); err != nil || dup {
			t.Fatalf("wake enqueue %s: dup=%v err=%v", dev, dup, err)
		}
		ledMu.Lock()
		led.enqueue(event)
		ledMu.Unlock()
	}

	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	if led.delivered != uint64(devices) || led.redelivered != 0 {
		t.Fatalf("delivered %d/%d, redelivered %d", led.delivered, devices, led.redelivered)
	}
	// Migrated mail left nothing at the old edge.
	for d := 0; d < cold; d++ {
		if p := gws[0].Mailbox().Pending(devName(d)); p != 0 {
			t.Fatalf("%s: %d entries stranded at old edge", devName(d), p)
		}
	}
	// Coalescing is timing-dependent here (on one CPU a microsecond pull
	// finishes before its herd siblings are scheduled, so zero shared
	// pulls is legitimate); the deterministic singleflight and semaphore
	// assertions live in gateway's TestMailboxPullSingleflight /
	// TestMailboxPullSemaphore, against a previous edge that blocks.
	var started, shared uint64
	for _, gw := range gws[1:] {
		s, sh := gw.MailboxPullStats()
		started += s
		shared += sh
	}
	t.Logf("migration pulls: %d started, %d coalesced", started, shared)
}

func devName(d int) string { return "dev-" + strconv.Itoa(d) }

func errStorm(dev, format string, args ...any) error {
	return fmt.Errorf("%s: "+format, append([]any{dev}, args...)...)
}

// raceMailboxPoll does one fetch(+ack) round against the mailbox
// endpoint, optionally announcing a previous edge.
func raceMailboxPoll(ctx context.Context, tr transport.RoundTripper, edge, dev, tok, prev string, ack uint64) ([]*push.Entry, uint64, error) {
	req := &transport.Request{Path: "/pdagent/mailbox"}
	req.SetHeader("device", dev)
	req.SetHeader("mailbox-token", tok)
	req.SetHeader("ack", strconv.FormatUint(ack, 10))
	if prev != "" {
		req.SetHeader("prev-edge", prev)
	}
	resp, err := tr.RoundTrip(ctx, edge, req)
	if err != nil {
		return nil, 0, err
	}
	if !resp.IsOK() {
		return nil, 0, fmt.Errorf("%s: poll %d %s", dev, resp.Status, resp.Text())
	}
	_, entries, watermark, _, _, _, err := push.ParseEntries(resp.Body)
	return entries, watermark, err
}
