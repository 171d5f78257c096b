package main

import (
	"context"
	"testing"
	"time"

	"pdagent/internal/mas"
	"pdagent/internal/metrics"
)

// TestLocRelayOrderedAndOffPath: post returns while the sender is stuck
// (a transfer never waits for a relay), relays go out in arrival order,
// a full queue drops the oldest and counts it, and run ends with its
// context.
func TestLocRelayOrderedAndOffPath(t *testing.T) {
	sent := make(chan int, 2*locRelayQueue)
	taken, gate := make(chan struct{}, 2*locRelayQueue), make(chan struct{})
	r := newLocRelay(func(_ context.Context, mv mas.AgentMove) {
		taken <- struct{}{}
		<-gate
		sent <- mv.Seq
	}, metrics.NewRegistry())
	ctx, cancel := context.WithCancel(context.Background())
	go r.run(ctx)

	// The sender takes relay 0 and blocks on it; the queue then holds
	// locRelayQueue more, and every post beyond that evicts the oldest.
	r.post(ctx, mas.AgentMove{Seq: 0})
	<-taken
	const extra = 10
	for i := 1; i <= locRelayQueue+extra; i++ {
		r.post(ctx, mas.AgentMove{Seq: i}) // would deadlock here if post waited for the sender
	}
	if got := r.dropped.Value(); got != extra {
		t.Fatalf("%d relays dropped, want %d", got, extra)
	}
	close(gate)
	want := []int{0}
	for i := extra + 1; i <= locRelayQueue+extra; i++ {
		want = append(want, i)
	}
	for _, w := range want {
		select {
		case got := <-sent:
			if got != w {
				t.Fatalf("relay %d sent where %d was due: out of order, or the wrong end was dropped", got, w)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("relay %d never sent", w)
		}
	}
	cancel()
	select {
	case <-r.done:
	case <-time.After(5 * time.Second):
		t.Fatal("run did not end with its context")
	}
}
