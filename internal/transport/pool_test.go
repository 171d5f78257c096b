package transport

import (
	"context"
	"sync"
	"testing"
	"time"
)

// countingRT records the peak in-flight concurrency per destination.
type countingRT struct {
	mu      sync.Mutex
	cur     map[string]int
	peak    map[string]int
	block   chan struct{} // when non-nil, calls park here
	entered chan struct{} // signalled once per call on entry
}

func newCountingRT() *countingRT {
	return &countingRT{cur: map[string]int{}, peak: map[string]int{}}
}

func (c *countingRT) RoundTrip(ctx context.Context, addr string, req *Request) (*Response, error) {
	c.mu.Lock()
	c.cur[addr]++
	if c.cur[addr] > c.peak[addr] {
		c.peak[addr] = c.cur[addr]
	}
	entered := c.entered
	block := c.block
	c.mu.Unlock()
	if entered != nil {
		entered <- struct{}{}
	}
	if block != nil {
		<-block
	}
	c.mu.Lock()
	c.cur[addr]--
	c.mu.Unlock()
	return OK([]byte("ok")), nil
}

func (c *countingRT) peakFor(addr string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peak[addr]
}

func TestPooledLimitsPerDestination(t *testing.T) {
	inner := newCountingRT()
	inner.block = make(chan struct{})
	inner.entered = make(chan struct{}, 64)
	const limit = 4
	p := NewPooled(inner, limit)

	const callers = 20
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := p.RoundTrip(context.Background(), "host-a", &Request{Path: "/x"}); err != nil {
				t.Errorf("roundtrip: %v", err)
			}
		}()
	}
	// Wait until the limiter has admitted its fill, give stragglers a
	// moment to (incorrectly) slip through, then release everything.
	for i := 0; i < limit; i++ {
		<-inner.entered
	}
	time.Sleep(20 * time.Millisecond)
	if got := p.InFlight("host-a"); got != limit {
		t.Errorf("InFlight = %d, want %d", got, limit)
	}
	close(inner.block)
	wg.Wait()
	if peak := inner.peakFor("host-a"); peak > limit {
		t.Fatalf("peak concurrency %d exceeded limit %d", peak, limit)
	}
	// Drain remaining entered signals so nothing leaks.
	for len(inner.entered) > 0 {
		<-inner.entered
	}
}

func TestPooledDestinationsIndependent(t *testing.T) {
	inner := newCountingRT()
	inner.block = make(chan struct{})
	inner.entered = make(chan struct{}, 8)
	p := NewPooled(inner, 1)

	done := make(chan struct{})
	go func() {
		p.RoundTrip(context.Background(), "host-a", &Request{Path: "/x"}) //nolint:errcheck
		close(done)
	}()
	<-inner.entered // host-a occupies its single slot

	// host-b must not be starved by host-a's saturation.
	go func() {
		p.RoundTrip(context.Background(), "host-b", &Request{Path: "/x"}) //nolint:errcheck
	}()
	select {
	case <-inner.entered:
	case <-time.After(2 * time.Second):
		t.Fatal("host-b starved by host-a's limit")
	}
	close(inner.block)
	<-done
}

func TestPooledContextCancel(t *testing.T) {
	inner := newCountingRT()
	inner.block = make(chan struct{})
	inner.entered = make(chan struct{}, 1)
	p := NewPooled(inner, 1)

	go p.RoundTrip(context.Background(), "host-a", &Request{Path: "/x"}) //nolint:errcheck
	<-inner.entered

	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() {
		_, err := p.RoundTrip(ctx, "host-a", &Request{Path: "/x"})
		errc <- err
	}()
	cancel()
	select {
	case err := <-errc:
		if err != context.Canceled {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
	close(inner.block)
}

func TestPooledDefaults(t *testing.T) {
	p := NewPooled(newCountingRT(), 0)
	if p.perDest != DefaultMaxPerDest {
		t.Fatalf("perDest = %d, want %d", p.perDest, DefaultMaxPerDest)
	}
	if p.InFlight("nowhere") != 0 {
		t.Fatal("InFlight on unknown destination != 0")
	}
}
