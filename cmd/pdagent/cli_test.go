package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"pdagent/internal/core"
	"pdagent/internal/device"
	"pdagent/internal/netsim"
	"pdagent/internal/rms"
)

// TestDispatchMovesMailboxCursor runs the CLI's dispatch-then-collect
// sequence with one process per command: a fresh device.Platform over
// the same store for every verb. The mail each dispatch answer carries
// is read before the verb ends, so its cursor persists and the next
// upload acks it. A journey over by the time it is answered shows its
// result in the dispatch output; one that is not is collected, and its
// mailbox copy, arriving with the next answer, is dropped by the
// collected set. The device's mailbox therefore never backs up: it
// stays within one answer's batch and the quota evicts nothing.
func TestDispatchMovesMailboxCursor(t *testing.T) {
	w, err := core.NewSimWorld(core.SimConfig{Seed: 5, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, _ := w.NewJourney()
	store := rms.NewMemStore("pda", 0)
	verb := func(args ...string) string {
		t.Helper()
		plat, err := device.NewPlatform(device.Config{
			Owner:     "pda-user",
			Transport: w.Transport(netsim.ZoneWireless),
			Store:     store,
			Secure:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run(ctx, plat, args[0], args[1:], &out); err != nil {
			t.Fatalf("%s: %v", strings.Join(args, " "), err)
		}
		return out.String()
	}
	verb("subscribe", "-gateway", "gw-0", "-code", core.AppEcho)
	collected := 0
	for i := 0; i < 300; i++ {
		id, mail, _ := strings.Cut(verb("dispatch", "-code", core.AppEcho, "-param", fmt.Sprintf("n=%d", i)), "\n")
		switch {
		case mail == "":
			w.Run()
			if out := verb("collect", "-agent", id); !strings.Contains(out, "status: done") {
				t.Fatalf("journey %d: collect printed %q", i, out)
			}
			collected++
		case strings.Count(mail, "agent:") != 1 || !strings.Contains(mail, "agent:  "+id+"\nstatus: done"):
			t.Fatalf("journey %d (%s): dispatch showed %q, want its own result alone", i, id, mail)
		}
		// The pdagent_mailbox_* gauges, read past their scrape cache.
		if n := w.Gateways[0].Mailbox().Stats().Pending; n > 32 {
			t.Fatalf("after journey %d the mailbox holds %d entries, want at most one batch (32)", i, n)
		}
	}
	if collected == 0 || collected == 300 {
		t.Fatalf("%d of 300 journeys collected, want some collected and some answered in their dispatch", collected)
	}
	if n := w.Gateways[0].Mailbox().Stats().EvictedQuota; n != 0 {
		t.Fatalf("pdagent_mailbox_evicted_quota = %d, want 0", n)
	}
}

// TestCollectOfDeliveredJourney: once a dispatch's output has shown
// the journey's own result, collecting it says the result was already
// delivered and succeeds, as one process per verb runs it.
func TestCollectOfDeliveredJourney(t *testing.T) {
	w, err := core.NewSimWorld(core.SimConfig{Seed: 6, KeyBits: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx, _ := w.NewJourney()
	store := rms.NewMemStore("pda", 0)
	verb := func(args ...string) (string, error) {
		plat, err := device.NewPlatform(device.Config{
			Owner:     "pda-user",
			Transport: w.Transport(netsim.ZoneWireless),
			Store:     store,
			Secure:    true,
		})
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		err = run(ctx, plat, args[0], args[1:], &out)
		return out.String(), err
	}
	if _, err := verb("subscribe", "-gateway", "gw-0", "-code", core.AppEcho); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		out, err := verb("dispatch", "-code", core.AppEcho)
		if err != nil {
			t.Fatal(err)
		}
		id, mail, _ := strings.Cut(out, "\n")
		w.Run()
		if !strings.Contains(mail, "agent:  "+id+"\n") {
			continue // not over when answered: collect finds it pending
		}
		out, err = verb("collect", "-agent", id)
		if err != nil || out != id+": result already delivered\n" {
			t.Fatalf("collect of %s, whose result its dispatch printed: %q, %v", id, out, err)
		}
		return
	}
	t.Fatal("no dispatch answer carried its own journey's result")
}
