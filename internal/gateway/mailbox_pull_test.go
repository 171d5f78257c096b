package gateway

import (
	"context"
	"strconv"
	"sync"
	"testing"
	"time"

	"pdagent/internal/cluster"
	"pdagent/internal/netsim"
	"pdagent/internal/pisec"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

func testKeyPair(t *testing.T) *pisec.KeyPair {
	t.Helper()
	testKPOnce.Do(func() {
		kp, err := pisec.GenerateKeyPair(1024)
		if err != nil {
			t.Fatal(err)
		}
		testKP = kp
	})
	return testKP
}

// pullFixture is a mailbox gateway whose cluster has one other member,
// "gw-prev", backed by a stub handler that blocks every request until
// release is closed — so migration pulls genuinely park in flight and
// the herd-protection layers are observable deterministically.
type pullFixture struct {
	gw      *Gateway
	tr      transport.RoundTripper
	arrived chan string   // device header of each request reaching gw-prev
	release chan struct{} // closing it unblocks the stub
}

func newPullFixture(t *testing.T) *pullFixture {
	t.Helper()
	net := netsim.New(5)
	addrs := []string{"gw-t", "gw-prev"}
	f := &pullFixture{
		arrived: make(chan string, 128),
		release: make(chan struct{}),
	}
	gw, err := New(Config{
		Addr:      "gw-t",
		KeyPair:   testKeyPair(t),
		Transport: net.Transport(netsim.ZoneWired),
		Mailbox:   &MailboxConfig{Store: rms.NewMemStore("pull", 0)},
		Cluster: cluster.NewNode(cluster.Config{
			Self:      "gw-t",
			Seeds:     addrs,
			Transport: net.Transport(netsim.ZoneWired),
			Secret:    "pull-secret",
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(gw.Close)
	net.AddHost("gw-t", netsim.ZoneWired, gw.Handler())
	net.AddHost("gw-prev", netsim.ZoneWired, transport.HandlerFunc(
		func(ctx context.Context, req *transport.Request) *transport.Response {
			f.arrived <- req.GetHeader("device")
			select {
			case <-f.release:
			case <-ctx.Done():
			}
			return transport.Errorf(transport.StatusNotFound, "stub previous edge")
		}))
	f.gw = gw
	f.tr = net.Transport(netsim.ZoneWireless)
	return f
}

// poll runs one mailbox fetch announcing gw-prev as the previous edge.
func (f *pullFixture) poll(t *testing.T, device, tok string) {
	req := &transport.Request{Path: "/pdagent/mailbox"}
	req.SetHeader("device", device)
	req.SetHeader("mailbox-token", tok)
	req.SetHeader("ack", "0")
	req.SetHeader("prev-edge", "gw-prev")
	resp, err := f.tr.RoundTrip(context.Background(), "gw-t", req)
	if err != nil {
		t.Error(err)
		return
	}
	if !resp.IsOK() {
		t.Errorf("%s: poll %d %s", device, resp.Status, resp.Text())
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestMailboxPullSingleflight: concurrent polls for the same device
// coalesce onto one in-flight migration pull — the previous edge sees a
// single export request no matter how big the retry herd is.
func TestMailboxPullSingleflight(t *testing.T) {
	f := newPullFixture(t)
	const herd = 6
	tok := f.gw.Mailbox().Touch("dev-sf")

	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.poll(t, "dev-sf", tok)
		}()
	}

	// Exactly one pull reaches the previous edge and parks there...
	if dev := <-f.arrived; dev != "dev-sf" {
		t.Fatalf("pull for %q reached the previous edge", dev)
	}
	// ...while every other poll coalesces onto it.
	waitUntil(t, "herd to coalesce", func() bool {
		_, shared := f.gw.MailboxPullStats()
		return shared == herd-1
	})
	select {
	case dev := <-f.arrived:
		t.Fatalf("second pull for %q escaped the singleflight", dev)
	default:
	}

	close(f.release)
	wg.Wait()
	if started, shared := f.gw.MailboxPullStats(); started != 1 || shared != herd-1 {
		t.Fatalf("pull stats = %d started, %d shared; want 1, %d", started, shared, herd-1)
	}
}

// TestMailboxPullSemaphore: pulls for distinct devices share a bounded
// semaphore, so a reconnect storm reaches the previous edge as at most
// maxConcurrentMailboxPulls concurrent requests.
func TestMailboxPullSemaphore(t *testing.T) {
	f := newPullFixture(t)
	const fleet = maxConcurrentMailboxPulls + 8

	var wg sync.WaitGroup
	for i := 0; i < fleet; i++ {
		dev := "dev-" + strconv.Itoa(i)
		tok := f.gw.Mailbox().Touch(dev)
		wg.Add(1)
		go func() {
			defer wg.Done()
			f.poll(t, dev, tok)
		}()
	}

	// The edge fills to the cap...
	seen := 0
	deadlineC := time.After(5 * time.Second)
	for seen < maxConcurrentMailboxPulls {
		select {
		case <-f.arrived:
			seen++
		case <-deadlineC:
			t.Fatalf("only %d pulls reached the previous edge, want %d", seen, maxConcurrentMailboxPulls)
		}
	}
	// ...and not one request beyond it while those are in flight.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-f.arrived:
		t.Fatal("semaphore admitted more concurrent pulls than its cap")
	default:
	}

	close(f.release)
	wg.Wait()
	for seen < fleet {
		select {
		case <-f.arrived:
			seen++
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d pulls ever reached the previous edge, want %d", seen, fleet)
		}
	}
	if started, _ := f.gw.MailboxPullStats(); started != fleet {
		t.Fatalf("started = %d, want %d", started, fleet)
	}
}
