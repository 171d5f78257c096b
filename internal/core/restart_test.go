package core

import (
	"context"
	"testing"

	"pdagent/internal/device"
	"pdagent/internal/mas"
	"pdagent/internal/mavm"
	"pdagent/internal/push"
	"pdagent/internal/tenant"
)

// openSessionWantsPending opens a session and requires agentID to stay
// pending: no delivery about it, in particular no terminal status note.
func openSessionWantsPending(t *testing.T, ctx context.Context, dev *device.Platform, agentID string) {
	t.Helper()
	s, err := dev.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Deliveries {
		if d.AgentID == agentID {
			t.Fatalf("session delivered %+v for a journey still under way", d)
		}
	}
	if p := dev.Pending(); len(p) != 1 || p[0] != agentID {
		t.Fatalf("pending after the session = %v, want [%s]", p, agentID)
	}
}

// finishResumedJourney retries parked transfers, runs the world and
// requires exactly one result for agentID by mail, with the gateway's
// in-flight count and tenant ledger back at 0.
func finishResumedJourney(t *testing.T, ctx context.Context, w *SimWorld, dev *device.Platform, agentID string) {
	t.Helper()
	w.RetryParked(ctx)
	w.Run()
	s, err := dev.OpenSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Deliveries) != 1 || s.Deliveries[0].Kind != push.KindResult || s.Deliveries[0].AgentID != agentID ||
		s.Deliveries[0].Result == nil || !s.Deliveries[0].Result.OK() {
		t.Fatalf("session after the journey = %+v", s.Deliveries)
	}
	if p := dev.Pending(); len(p) != 0 {
		t.Fatalf("pending after delivery = %v", p)
	}
	gw := w.Gateways[0]
	if n, l := gw.Registry().InFlight(), gw.TenantLedger().InFlight(tenant.DefaultID); n != 0 || l != 0 {
		t.Fatalf("in flight at quiescence: registry %d, ledger %d", n, l)
	}
}

// TestRestartKeepsAwayJourneyPending: the gateway crashes while its
// agent is away at a bank and restarts over its journal before the
// agent is home. A session opened in between must not take the
// journey for over: the restarted gateway answers its collect as still
// travelling, and its status still chases the agent.
func TestRestartKeepsAwayJourneyPending(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 51, Journal: true})
	defer w.Close()
	ctx, _ := w.NewJourney()
	dev := deviceAt(t, w, "alice")
	if err := dev.Subscribe(ctx, "gw-0", AppEBanking); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	for w.Hosts["bank-a"].AgentStates()[agentID] != mas.StateRunning {
		if !w.Queue.Step() {
			t.Fatal("agent never reached bank-a")
		}
	}
	if err := w.CrashGateway("gw-0"); err != nil {
		t.Fatal(err)
	}
	w.Run() // the agent parks at bank-b: its home is down
	if _, err := w.RestartGateway(ctx, "gw-0"); err != nil {
		t.Fatal(err)
	}
	if st := w.Gateways[0].MAS().AgentStates()[agentID]; st != mas.StateDeparted {
		t.Fatalf("restarted home holds %q for the agent, want its departure pointer", st)
	}
	openSessionWantsPending(t, ctx, dev, agentID)
	if state, _, err := dev.AgentStatus(ctx, agentID); err != nil || state != "travelling" {
		t.Fatalf("status after the restart = %q, %v; want travelling", state, err)
	}
	finishResumedJourney(t, ctx, w, dev, agentID)
}

// TestRestartKeepsParkedJourneyPending: the gateway parks its agent on
// a bank that is down, crashes and restarts over its journal. The
// resumed agent is filed in the registry again: a session keeps the
// journey pending, and it completes once the bank is back.
func TestRestartKeepsParkedJourneyPending(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 52, Journal: true})
	defer w.Close()
	ctx, _ := w.NewJourney()
	dev := deviceAt(t, w, "alice")
	if err := dev.Subscribe(ctx, "gw-0", AppEBanking); err != nil {
		t.Fatal(err)
	}
	if err := w.CrashHost("bank-a"); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	w.Run()
	if st := w.Gateways[0].MAS().AgentStates()[agentID]; st != mas.StateParked {
		t.Fatalf("with bank-a down the agent is %q, want parked", st)
	}
	if err := w.CrashGateway("gw-0"); err != nil {
		t.Fatal(err)
	}
	if n, err := w.RestartGateway(ctx, "gw-0"); err != nil || n != 1 {
		t.Fatalf("restart resumed %d journey(s), %v; want 1", n, err)
	}
	w.Run() // the resumed departure parks again
	openSessionWantsPending(t, ctx, dev, agentID)
	if _, err := w.RestartHost(ctx, "bank-a"); err != nil {
		t.Fatal(err)
	}
	finishResumedJourney(t, ctx, w, dev, agentID)
}

// TestRestartedGatewayIssuesFreshIDs: a gateway restarted over its
// journal and mailbox stores continues its agent ids past the ones they
// remember. Reusing the first journey's id, the second e-banking
// journey would be swallowed by bank-a's dedup watermark, and the
// second echo's result by the mailbox's dedup window: neither mailed.
func TestRestartedGatewayIssuesFreshIDs(t *testing.T) {
	for _, tc := range []struct {
		app    string
		params map[string]mavm.Value
	}{
		{AppEBanking, ebankingParams([]string{"bank-a"}, 1)},
		{AppEcho, nil},
	} {
		t.Run(tc.app, func(t *testing.T) {
			w := testWorld(t, SimConfig{Seed: 53, Journal: true})
			defer w.Close()
			ctx, _ := w.NewJourney()
			dev := deviceAt(t, w, "alice")
			journey := func() string {
				t.Helper()
				if err := dev.Subscribe(ctx, "gw-0", tc.app); err != nil {
					t.Fatal(err)
				}
				id, err := dev.Dispatch(ctx, tc.app, tc.params)
				if err != nil {
					t.Fatal(err)
				}
				w.Run()
				got := dev.ReadHeldMail()
				s, err := dev.OpenSession(ctx)
				if err != nil {
					t.Fatal(err)
				}
				got = append(got, s.Deliveries...)
				if len(got) != 1 || got[0].AgentID != id || got[0].Result == nil || !got[0].Result.OK() {
					t.Fatalf("journey %s delivered %+v, want its result by mail", id, got)
				}
				return id
			}
			first := journey()
			if err := w.CrashGateway("gw-0"); err != nil {
				t.Fatal(err)
			}
			if _, err := w.RestartGateway(ctx, "gw-0"); err != nil {
				t.Fatal(err)
			}
			// Subscriptions die with the gateway: journey re-subscribes.
			if second := journey(); second == first {
				t.Fatalf("the restarted gateway reissued %s", first)
			}
		})
	}
}

// TestRestartForgetsDisposedJourney: an agent disposed of away from
// home takes its journaled forwarding pointer with it, so a gateway
// restarted afterwards files no open journey for it.
func TestRestartForgetsDisposedJourney(t *testing.T) {
	w := testWorld(t, SimConfig{Seed: 54, Journal: true})
	defer w.Close()
	ctx, _ := w.NewJourney()
	dev := deviceAt(t, w, "alice")
	if err := dev.Subscribe(ctx, "gw-0", AppEBanking); err != nil {
		t.Fatal(err)
	}
	if err := w.CrashHost("bank-b"); err != nil {
		t.Fatal(err)
	}
	agentID, err := dev.Dispatch(ctx, AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, 1))
	if err != nil {
		t.Fatal(err)
	}
	w.Run() // the agent parks at bank-a
	if err := dev.Dispose(ctx, agentID); err != nil {
		t.Fatal(err)
	}
	if err := w.CrashGateway("gw-0"); err != nil {
		t.Fatal(err)
	}
	if _, err := w.RestartGateway(ctx, "gw-0"); err != nil {
		t.Fatal(err)
	}
	gw := w.Gateways[0]
	if n := gw.Registry().InFlight(); n != 0 {
		t.Fatalf("restarted gateway holds %d journey(s) in flight, want 0", n)
	}
	if st, ok := gw.MAS().AgentStates()[agentID]; ok {
		t.Fatalf("restarted home restored the disposed agent as %q", st)
	}
}
