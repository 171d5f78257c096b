package core

import (
	"context"
	"testing"
	"time"

	"pdagent/internal/compress"
	"pdagent/internal/device"
	"pdagent/internal/netsim"
	"pdagent/internal/transport"
)

// linkMeter counts what a device's own link carries, as the benchmark's
// device-side decorator does: path, body and each X-Pdagent-* header
// line of every request and its answer.
type linkMeter struct {
	inner           transport.RoundTripper
	requests, bytes int
}

const meteredHeader = len("X-Pdagent-") + len(": \r\n")

func (m *linkMeter) RoundTrip(ctx context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	resp, err := m.inner.RoundTrip(ctx, addr, req)
	m.requests++
	m.bytes += len(req.Path) + len(req.Body)
	for k, v := range req.Header {
		m.bytes += meteredHeader + len(k) + len(v)
	}
	if resp != nil {
		m.bytes += len(resp.Body)
		for k, v := range resp.Header {
			m.bytes += meteredHeader + len(k) + len(v)
		}
	}
	return resp, err
}

// TestEBankJourneyLinkBytes pins what the paper's evaluation journey
// (two banks, five transfers at each, a long-polling device holding its
// mailbox token) moves over the handheld's link: the sealed upload,
// naming its code by hash and its sealed session by id, compressed in
// the primed DEFLATE codec the gateway's answers showed it reads, and
// the long-poll whose answer is the result as one DEFLATE frame primed
// with the platform's markup, without enqueue times: 2 requests and 823
// bytes per journey, the two accept headers asking for that frame
// included, against 1050 with an LZSS upload, 1070 when the standard
// library's level-2 writer encoded the answer, 1216 when the answer was
// unprimed, 1440
// when the answer was an LZSS frame, 1464 when it also carried each
// entry's wall-clock enqueue time, 1576
// when every upload carried the 128-byte RSA-1024 wrap instead of the
// 16-byte id, 1946 when it also carried the code, and 4785 when the
// answer was the raw mailbox document with the result escaped inside
// it. The nonce and the
// dispatch key are random hex, so the compressed upload wobbles by a
// byte or two between runs.
func TestEBankJourneyLinkBytes(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 7})
	defer w.Close()
	gw := w.GatewayAddrs()[0]
	m := &linkMeter{inner: w.Transport(netsim.ZoneWireless)}
	dev, err := device.NewPlatform(device.Config{Owner: "pda-00", Transport: m, Codec: compress.LZSS, Secure: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.SetGateways(w.GatewayAddrs()); err != nil {
		t.Fatal(err)
	}
	ctx, _ := w.NewJourney()
	if err := dev.Subscribe(ctx, gw, AppEBanking); err != nil {
		t.Fatal(err)
	}
	journey := func() {
		t.Helper()
		id, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 5))
		if err != nil {
			t.Fatal(err)
		}
		w.Run()
		ds, _, err := dev.PollMailbox(ctx, gw, 5*time.Second)
		if err != nil || len(ds) != 1 || ds[0].AgentID != id || ds[0].Result == nil || !ds[0].Result.OK() {
			t.Fatalf("journey %s delivered %+v, %v", id, ds, err)
		}
	}
	journey() // mints the mailbox token: steady state starts after it
	const journeys = 4
	requests, bytes := m.requests, m.bytes
	for i := 0; i < journeys; i++ {
		journey()
	}
	perJourney := (m.bytes - bytes) / journeys
	t.Logf("device link: %d bytes, %d requests per journey", perJourney, (m.requests-requests)/journeys)
	if n := m.requests - requests; n != 2*journeys {
		t.Fatalf("%d requests for %d journeys, want 2 each", n, journeys)
	}
	if want := 823; perJourney < want-want/100 || perJourney > want+want/100 {
		t.Fatalf("device link carries %d bytes per journey, want %d ± 1 %%", perJourney, want)
	}
}
