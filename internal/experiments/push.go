package experiments

import (
	"fmt"
	"time"

	"pdagent/internal/core"
)

// E8 — completion-to-delivery latency for a disconnecting device.
//
// The paper's premise is that the agent roams so the handheld does not
// have to stay online, but its evaluation only measures always-on
// devices polling for results. E8 measures the disconnected-device
// scenario the mailbox subsystem (DESIGN.md §7) makes first-class: the
// device dispatches, drops off the air for a configurable outage while
// the journey completes, then reconnects and opens a session. The
// result reaches it through the durable mailbox exactly once; the
// interesting quantity is the delivery lag — how long after the agent
// came home the device actually held the result — which for an offline
// device collapses to (remaining outage + one delivery round trip),
// versus a poll loop that would have burned the whole outage retrying.

// E8Row is one outage point of the E8 series.
type E8Row struct {
	// Outage is how long the device stayed unreachable after the
	// journey completed under it.
	Outage time.Duration
	// AlwaysOn is the dispatch-to-delivery time of a device that never
	// disconnected (the baseline).
	AlwaysOn time.Duration
	// Disconnected is the dispatch-to-delivery time for the
	// disconnecting device.
	Disconnected time.Duration
	// DeliveryLag is result-ready-to-delivered for the disconnecting
	// device (outage remainder + the session round trip).
	DeliveryLag time.Duration
}

// MeasureDelivery runs one e-banking journey (txns transactions over
// both banks) on a simulated world and returns the dispatch-to-
// delivery time plus the result-ready-to-delivered lag. With outage >
// 0 the device disconnects right after the upload and reconnects
// outage after the journey completed; with outage == 0 it stays
// online and opens its session immediately.
func MeasureDelivery(seed int64, txns int, outage time.Duration) (total, lag time.Duration, err error) {
	wireless, wired := experimentLinks()
	world, err := core.NewSimWorld(core.SimConfig{
		Seed:     seed,
		Wireless: &wireless,
		Wired:    &wired,
		KeyBits:  1024,
	})
	if err != nil {
		return 0, 0, err
	}
	defer world.Close()
	dev, err := world.NewDevice("e8-device")
	if err != nil {
		return 0, 0, err
	}
	ctx, clock := world.NewJourney()
	if err := dev.Subscribe(ctx, "gw-0", core.AppEBanking); err != nil {
		return 0, 0, err
	}

	t0 := clock.Now()
	agentID, err := dev.Dispatch(ctx, core.AppEBanking, ebankingParams([]string{"bank-a", "bank-b"}, txns))
	if err != nil {
		return 0, 0, err
	}
	if outage > 0 {
		if err := world.DisconnectDevice("e8-device"); err != nil {
			return 0, 0, err
		}
	}
	world.Run()
	ready := clock.Now() // the agent is home, the mailbox holds the result
	if outage > 0 {
		clock.Advance(outage)
		if err := world.ReconnectDevice("e8-device"); err != nil {
			return 0, 0, err
		}
	}
	s, err := dev.OpenSession(ctx)
	if err != nil {
		return 0, 0, err
	}
	found := false
	for _, d := range s.Deliveries {
		if d.AgentID == agentID && d.Result != nil {
			if !d.Result.OK() {
				return 0, 0, fmt.Errorf("experiments: journey failed: %s", d.Result.Error)
			}
			found = true
		}
	}
	if !found {
		return 0, 0, fmt.Errorf("experiments: session delivered no result for %s", agentID)
	}
	done := clock.Now()
	// Exactly once: a second session (after the measurement point) must
	// deliver nothing.
	if s2, err := dev.OpenSession(ctx); err != nil {
		return 0, 0, err
	} else if len(s2.Deliveries) != 0 {
		return 0, 0, fmt.Errorf("experiments: result redelivered (%d extra deliveries)", len(s2.Deliveries))
	}
	return done - t0, done - ready, nil
}

// E8 regenerates the disconnection series: a fixed 3-transaction
// journey, delivered to an always-on device and to devices that stayed
// away for increasing outages.
func E8(seed int64, outages []time.Duration) ([]E8Row, error) {
	const txns = 3
	baseline, _, err := MeasureDelivery(seed, txns, 0)
	if err != nil {
		return nil, fmt.Errorf("e8 always-on: %w", err)
	}
	rows := make([]E8Row, 0, len(outages))
	for _, o := range outages {
		total, lag, err := MeasureDelivery(seed, txns, o)
		if err != nil {
			return nil, fmt.Errorf("e8 outage=%v: %w", o, err)
		}
		rows = append(rows, E8Row{Outage: o, AlwaysOn: baseline, Disconnected: total, DeliveryLag: lag})
	}
	return rows, nil
}

// DefaultE8Outages is the x-axis of the E8 figure.
var DefaultE8Outages = []time.Duration{
	time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second,
}

// E8Table renders the E8 series.
func E8Table(rows []E8Row) *Table {
	t := &Table{
		Title:   "E8 — completion-to-delivery with a disconnected device (virtual seconds)",
		Columns: []string{"outage", "always-on", "disconnected", "delivery-lag"},
	}
	for _, r := range rows {
		t.AddRow(secs(r.Outage), secs(r.AlwaysOn), secs(r.Disconnected), secs(r.DeliveryLag))
	}
	return t
}
