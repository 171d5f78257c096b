package mas

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"pdagent/internal/atp"
	"pdagent/internal/netsim"
	"pdagent/internal/rms"
	"pdagent/internal/transport"
)

// TestRetirementBoundsEveryServer: a server remembers at most MaxRetired
// finished agents — records, dedup watermarks and journal tombstones —
// whether it journals to a WAL, to memory or not at all. Three times the
// cap of zero-hop admissions finished at home and of one-hop round trips
// through a bank leave each server with exactly the cap of records: the
// window is bounded and not shrunk.
func TestRetirementBoundsEveryServer(t *testing.T) {
	for _, journal := range []string{"wal", "mem", "none"} {
		t.Run(journal, func(t *testing.T) {
			w := newJWorld(t, map[string]string{"bank-a": "aglets"}, netsim.ZoneWired)
			for _, addr := range []string{"gw-0", "bank-a"} {
				switch journal {
				case "wal":
					wal, err := rms.OpenWALStore(filepath.Join(t.TempDir(), addr), rms.WALOptions{Sync: rms.SyncNever})
					if err != nil {
						t.Fatal(err)
					}
					defer wal.Close()
					w.journals[addr] = wal
				case "none":
					delete(w.journals, addr)
				}
				w.startServer(addr)
			}
			ctx := netsim.WithClock(context.Background(), netsim.NewClock())
			homecomings := 0
			for i := 0; i < 3*MaxRetired; i++ {
				w.admit(ctx, `deliver("x", 1);`, fmt.Sprintf("ag-z%d", i), nil)
				w.admit(ctx, `migrate("bank-a"); deliver("x", 1);`, fmt.Sprintf("ag-r%d", i), nil)
				w.queue.Drain()
				w.mu.Lock()
				homecomings += len(w.arrivals)
				w.arrivals = w.arrivals[:0]
				w.mu.Unlock()
			}
			if want := 6 * MaxRetired; homecomings != want {
				t.Fatalf("%d results home, want %d", homecomings, want)
			}
			for addr, srv := range w.servers {
				residents := srv.ResidentCount()
				srv.mu.Lock()
				records, accepted := len(srv.agents), len(srv.accepted)
				srv.mu.Unlock()
				if records != MaxRetired+residents || accepted > MaxRetired+residents {
					t.Errorf("%s: %d records and %d watermarks with %d residents; want %d records, ≤ %d watermarks",
						addr, records, accepted, residents, MaxRetired+residents, MaxRetired+residents)
				}
				if srv.jr == nil {
					continue
				}
				entries, err := srv.jr.loadAll()
				if err != nil {
					t.Fatal(err)
				}
				tombs := 0
				for _, e := range entries {
					if e.tombstone() {
						tombs++
					}
				}
				if tombs > MaxRetired || len(entries) != tombs {
					t.Errorf("%s: journal holds %d entries, %d of them tombstones; want tombstones alone, ≤ %d", addr, len(entries), tombs, MaxRetired)
				}
			}
		})
	}
}

// TestDisposeForgetsWatermark: an operator dispose of a finished agent
// forgets it the way the ring does — record, watermark and tombstone —
// so a retried handoff of it is answered the same before a restart as
// after one.
func TestDisposeForgetsWatermark(t *testing.T) {
	w := newJWorld(t, map[string]string{}, netsim.ZoneWired)
	ctx := netsim.WithClock(context.Background(), netsim.NewClock())
	body, _, _ := imageAtMigrate(t, "ag-home", `migrate("gw-0"); deliver("x", 1);`, -1)
	homecoming := func() *transport.Response {
		req := &transport.Request{Path: "/atp/transfer", Body: body}
		req.SetHeader("kind", KindDone)
		return w.servers["gw-0"].Handler().Serve(ctx, req)
	}
	dispose := func() {
		req := &transport.Request{Path: "/atp/dispose"}
		req.SetHeader("agent", "ag-home")
		if resp := w.servers["gw-0"].Handler().Serve(ctx, req); !resp.IsOK() {
			t.Fatalf("dispose: %d %s", resp.Status, resp.Text())
		}
	}
	if resp := homecoming(); !resp.IsOK() || resp.GetHeader("dedup") != "" {
		t.Fatalf("homecoming: %d %s", resp.Status, resp.Text())
	}
	dispose()
	if _, known := w.servers["gw-0"].AgentStates()["ag-home"]; known {
		t.Fatal("disposed agent still has a record")
	}
	if n, _ := w.journals["gw-0"].NumRecords(); n != 0 {
		t.Fatalf("journal holds %d records after the dispose, want 0", n)
	}
	for _, when := range []string{"before a restart", "after a restart"} {
		if when == "after a restart" {
			w.crash("gw-0")
			w.restart(ctx, "gw-0")
		}
		if resp := homecoming(); !resp.IsOK() || resp.GetHeader("dedup") != "" {
			t.Fatalf("retried homecoming %s: %d %s dedup=%q, want accepted anew", when, resp.Status, resp.Text(), resp.GetHeader("dedup"))
		}
		dispose()
	}
}

// TestEvictionRacesReArrival: retirements from several goroutines push
// the ring past its cap while agents it is about to forget arrive
// again. Every re-arrival keeps its live journal entry — the eviction
// holds the victim's stripe from its check to its drop — and the cap
// holds throughout. Run under -race.
func TestEvictionRacesReArrival(t *testing.T) {
	const senders, each, lag = 4, 1500, MaxRetired / 4
	srv, err := NewServer(Config{
		Addr: "gw-0", Codec: atp.AgletsCodec{}, Transport: &directTransport{},
		Journal: rms.NewMemStore("journal-gw-0", 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	// A homecoming of each agent, then, for sender 0's agents at the
	// eviction frontier, a re-arrival that parks: its next hop has no host.
	home := make([][][]byte, senders)
	for g := range home {
		for i := 0; i < each; i++ {
			body, _, _ := imageAtMigrate(t, fmt.Sprintf("ag-%d-%d", g, i), `migrate("gw-0"); deliver("x", 1);`, -1)
			home[g] = append(home[g], body)
		}
	}
	var again [][]byte
	for i := 0; i+lag < each; i++ {
		body, _, _ := imageAtMigrate(t, fmt.Sprintf("ag-0-%d", i), `migrate("gw-0"); migrate("nowhere");`, 5)
		again = append(again, body)
	}
	send := func(kind string, body []byte) {
		req := &transport.Request{Path: "/atp/transfer", Body: body}
		req.SetHeader("kind", kind)
		if resp := srv.Handler().Serve(context.Background(), req); !resp.IsOK() {
			t.Errorf("%s transfer: %d %s", kind, resp.Status, resp.Text())
		}
	}
	var wg sync.WaitGroup
	for g := range home {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, body := range home[g] {
				send(KindDone, body)
				if g == 0 && i >= lag {
					send(KindMigrate, again[i-lag])
				}
			}
		}()
	}
	wg.Wait()
	// ResidentCount also counts an agent still running its failing hop.
	waitFor(t, "re-arrivals parked", func() bool {
		states := srv.AgentStates()
		for i := range again {
			if states[fmt.Sprintf("ag-0-%d", i)] != StateParked {
				return false
			}
		}
		return true
	})

	entries, err := srv.jr.loadAll()
	if err != nil {
		t.Fatal(err)
	}
	live, tombs := map[string]bool{}, 0
	for _, e := range entries {
		if e.tombstone() {
			tombs++
		} else {
			live[e.Image.AgentID] = true
		}
	}
	states := srv.AgentStates()
	for i := range again {
		if id := fmt.Sprintf("ag-0-%d", i); states[id] != StateParked || !live[id] {
			t.Fatalf("re-arrived %s is %q, live journal entry %v; want parked and journaled", id, states[id], live[id])
		}
	}
	if len(states) > MaxRetired+len(again) || tombs > MaxRetired {
		t.Fatalf("%d records and %d tombstones with %d residents, want at most %d retired", len(states), tombs, len(again), MaxRetired)
	}
}
