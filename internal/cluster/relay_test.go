package cluster

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"pdagent/internal/mas"
	"pdagent/internal/metrics"
	"pdagent/internal/transport"
)

// answerRT answers /cluster/loc per home from a table the test edits,
// and counts the requests each home received.
type answerRT struct {
	mu      sync.Mutex
	answers map[string]int // home -> status; 0 = transport error
	got     map[string]int
	gate    chan struct{} // when set, every round trip waits for it
}

func (rt *answerRT) RoundTrip(_ context.Context, addr string, req *transport.Request) (*transport.Response, error) {
	rt.mu.Lock()
	status, gate := rt.answers[addr], rt.gate
	rt.got[addr]++
	rt.mu.Unlock()
	if gate != nil {
		<-gate
	}
	switch {
	case req.Path != "/cluster/loc":
		return nil, fmt.Errorf("relay asked for %s", req.Path)
	case status == 0:
		return nil, errors.New("connection refused")
	case status == transport.StatusOK:
		return transport.OK(nil), nil
	}
	return transport.Errorf(status, "status %d", status), nil
}

func (rt *answerRT) set(home string, status int) {
	rt.mu.Lock()
	rt.answers[home] = status
	rt.mu.Unlock()
}

func (rt *answerRT) requests(home string) int {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.got[home]
}

// relayFixture is a Relay over an answerRT, a clock the test moves and
// a captured log.
type relayFixture struct {
	*Relay
	rt    *answerRT
	clock time.Time
	logMu sync.Mutex
	lines []string
}

func newRelayFixture() *relayFixture {
	f := &relayFixture{rt: &answerRT{answers: map[string]int{}, got: map[string]int{}}, clock: time.Unix(1_000_000, 0)}
	f.Relay = NewRelay(f.rt, "site-1", "s3")
	f.now = func() time.Time { return f.clock }
	f.log = metrics.NewLogger("loc-relay", func(format string, args ...any) {
		f.logMu.Lock()
		f.lines = append(f.lines, fmt.Sprintf(format, args...))
		f.logMu.Unlock()
	})
	return f
}

func (f *relayFixture) send(home string, n int) {
	for i := 0; i < n; i++ {
		f.Send(context.Background(), mas.AgentMove{AgentID: "ag-1", Addr: "site-1", Home: home, Seq: i})
	}
}

func (f *relayFixture) counts() [4]uint64 {
	return [4]uint64{f.sent.Load(), f.skipped.Load(), f.refused.Load(), f.failed.Load()}
}

// TestLocationRelayLearnsDirectoryLessHomes: a home that answers
// /cluster/loc with 404 keeps no directory and is skipped until the
// re-probe interval has passed, when one event is sent as the probe; an
// OK clears the mark; nothing but a 404 answer sets it.
func TestLocationRelayLearnsDirectoryLessHomes(t *testing.T) {
	t.Run("404 is skipped until the re-probe, then one probe", func(t *testing.T) {
		f := newRelayFixture()
		f.rt.set("gw-bare", transport.StatusNotFound)
		f.send("gw-bare", 6)
		if got := f.rt.requests("gw-bare"); got != 1 {
			t.Fatalf("%d requests to a home that answered 404, want the first only", got)
		}
		f.clock = f.clock.Add(relayReprobe - time.Second)
		f.send("gw-bare", 3)
		if got := f.rt.requests("gw-bare"); got != 1 {
			t.Fatalf("%d requests inside the re-probe interval, want still 1", got)
		}
		f.clock = f.clock.Add(time.Second)
		f.send("gw-bare", 4)
		if got := f.rt.requests("gw-bare"); got != 2 {
			t.Fatalf("%d requests after the interval, want one probe more (2)", got)
		}
		if got, want := f.counts(), [4]uint64{0, 13, 0, 0}; got != want {
			t.Fatalf("sent/skipped/refused/failed = %v, want %v", got, want)
		}
		// The gateway comes back federated: the next probe finds it, and
		// from then on it sees every event, exactly as it would today.
		f.rt.set("gw-bare", transport.StatusOK)
		f.clock = f.clock.Add(relayReprobe)
		f.send("gw-bare", 5)
		if got := f.rt.requests("gw-bare"); got != 7 {
			t.Fatalf("%d requests once the home answers OK, want the probe and every event after it (7)", got)
		}
		if got, want := f.counts(), [4]uint64{5, 13, 0, 0}; got != want {
			t.Fatalf("sent/skipped/refused/failed = %v, want %v", got, want)
		}
	})

	t.Run("a probe that fails is followed by the next event", func(t *testing.T) {
		f := newRelayFixture()
		f.rt.set("gw-bare", transport.StatusNotFound)
		f.send("gw-bare", 1)
		f.clock = f.clock.Add(relayReprobe)
		f.rt.set("gw-bare", 0) // restarting: connection refused
		f.send("gw-bare", 2)
		if got := f.rt.requests("gw-bare"); got != 3 {
			t.Fatalf("%d requests, want 3: a transport error must not renew the mark", got)
		}
	})

	t.Run("403, 500 and a transport error never mark", func(t *testing.T) {
		f := newRelayFixture()
		f.rt.set("gw-secret", transport.StatusForbidden)
		f.rt.set("gw-sick", transport.StatusServerError)
		f.rt.set("gw-ok", transport.StatusOK)
		// gw-down has no answer: a transport error.
		for _, home := range []string{"gw-secret", "gw-sick", "gw-down", "gw-ok"} {
			f.send(home, 5)
			if got := f.rt.requests(home); got != 5 {
				t.Fatalf("%s: %d requests for 5 events, want every one sent", home, got)
			}
		}
		if got, want := f.counts(), [4]uint64{5, 0, 5, 10}; got != want {
			t.Fatalf("sent/skipped/refused/failed = %v, want %v", got, want)
		}
		// The refusal is said once per home, and says which flag to check.
		f.rt.set("gw-secret-2", transport.StatusUnauthorized)
		f.send("gw-secret-2", 3)
		if len(f.lines) != 2 || !strings.Contains(f.lines[0], "gw-secret") || !strings.Contains(f.lines[0], "-cluster-secret") || !strings.Contains(f.lines[1], "gw-secret-2") {
			t.Fatalf("log = %q, want one refusal line per refusing home", f.lines)
		}
		// A home with no address, and this host itself, get nothing.
		f.send("", 1)
		f.send("site-1", 1)
		if f.rt.requests("") != 0 || f.rt.requests("site-1") != 0 {
			t.Fatal("relayed to an empty home or to itself")
		}
	})

	t.Run("the table is bounded", func(t *testing.T) {
		f := newRelayFixture()
		const extra = 10
		for i := 0; i < maxRelayHomes+extra; i++ {
			home := fmt.Sprintf("gw-%d", i)
			f.rt.set(home, transport.StatusNotFound)
			if i%2 == 1 {
				f.rt.set(home, transport.StatusForbidden)
			}
			f.send(home, 2)
			if len(f.homes) > maxRelayHomes {
				t.Fatalf("table holds %d homes after %d distinct ones, cap %d", len(f.homes), i+1, maxRelayHomes)
			}
		}
		if len(f.homes) != maxRelayHomes {
			t.Fatalf("table holds %d homes, want it full at the cap %d", len(f.homes), maxRelayHomes)
		}
		// Every home still in the table is skipped, or refused without
		// another log line; an evicted one costs one more probe or line.
		kept := make([]string, 0, len(f.homes))
		for home := range f.homes {
			kept = append(kept, home)
		}
		lines, skipped, refused := len(f.lines), f.skipped.Load(), f.refused.Load()
		for _, home := range kept {
			f.send(home, 1)
		}
		if len(f.lines) != lines || f.skipped.Load()-skipped+f.refused.Load()-refused != maxRelayHomes {
			t.Fatalf("homes in the table: %d new log line(s), %d skipped + %d refused of %d", len(f.lines)-lines,
				f.skipped.Load()-skipped, f.refused.Load()-refused, maxRelayHomes)
		}
		for _, home := range kept {
			if f.homes[home].refused {
				f.mu.Lock()
				f.forget(home) // what making room for a new home does
				f.mu.Unlock()
				f.send(home, 2)
				break
			}
		}
		if len(f.lines) != lines+1 {
			t.Fatalf("%d new log line(s) for a refusing home that lost its entry, want 1: its latch must go with the entry", len(f.lines)-lines)
		}
	})

	t.Run("concurrent events at the re-probe send one probe", func(t *testing.T) {
		f := newRelayFixture()
		f.rt.set("gw-bare", transport.StatusNotFound)
		f.send("gw-bare", 1)
		f.clock = f.clock.Add(relayReprobe)
		gate := make(chan struct{})
		f.rt.mu.Lock()
		f.rt.gate = gate
		f.rt.mu.Unlock()
		probed := make(chan struct{})
		go func() {
			f.send("gw-bare", 1)
			close(probed)
		}()
		for f.rt.requests("gw-bare") != 2 { // the probe is out
			time.Sleep(time.Millisecond)
		}
		var wg sync.WaitGroup
		for i := 0; i < 8; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				f.send("gw-bare", 1) // returns at once: skipped behind the probe
			}()
		}
		wg.Wait()
		close(gate)
		<-probed
		if got := f.rt.requests("gw-bare"); got != 2 {
			t.Fatalf("%d requests, want the first 404 and one probe", got)
		}
		if got, want := f.counts(), [4]uint64{0, 10, 0, 0}; got != want {
			t.Fatalf("sent/skipped/refused/failed = %v, want %v", got, want)
		}
	})
}
