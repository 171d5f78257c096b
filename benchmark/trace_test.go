package main

import "testing"

// sp builds a span for the self-time tests; times are in nanoseconds.
func sp(name string, cat category, start, end int64) span {
	return span{Name: name, Start: start, End: end, Parent: -1, cat: cat}
}

func byName(t *testing.T, spans []span, name string) *span {
	t.Helper()
	for i := range spans {
		if spans[i].Name == name {
			return &spans[i]
		}
	}
	t.Fatalf("no span %q", name)
	return nil
}

func TestSelfTimeNestedAndOverlappingChildren(t *testing.T) {
	spans := []span{
		sp("store-b", catJournal, 30, 60), // overlaps store-a: the union is [20,60]
		sp(journeyRootName, catDevice, 0, 100),
		sp("store-a", catJournal, 20, 50),
		sp("rt", catRT, 10, 90),
		sp("serve", catGateway, 15, 80),
	}
	resolve(spans)
	want := map[string]struct {
		parent string
		self   int64
	}{
		journeyRootName: {"", 20}, // 100 - rt's 80
		"rt":            {journeyRootName, 15},
		"serve":         {"rt", 25}, // 65 - union of the two stores (40)
		"store-a":       {"serve", 10},
		"store-b":       {"serve", 30}, // started last: the overlap [30,50] is its own
	}
	var total int64
	for name, w := range want {
		s := byName(t, spans, name)
		parent := ""
		if s.Parent >= 0 {
			parent = spans[s.Parent].Name
		}
		if parent != w.parent || s.self != w.self {
			t.Errorf("%s: parent %q self %d, want parent %q self %d", name, parent, s.self, w.parent, w.self)
		}
		total += s.self
	}
	if total != 100 {
		t.Errorf("self times sum to %d, want the root's 100: overlapping children were counted twice", total)
	}
}

// The agent runs on its own goroutine, so its mailbox commit straddles
// the device's poll instead of nesting in it. The overlap must be
// credited once, and to the commit the parked poll is waiting for.
func TestSelfTimePartialOverlapAndParkedPollYields(t *testing.T) {
	spans := []span{
		sp(journeyRootName, catDevice, 0, 1000),
		sp("rt dispatch", catRT, 10, 300),
		sp("serve dispatch", catGateway, 20, 290),
		sp("mailbox commit", catMailbox, 280, 700), // starts inside the dispatch, ends inside the poll
		sp("rt poll", catRT, 320, 900),
		sp("serve poll", catPollPark, 340, 880),
	}
	b, ok := journeyBudget(spans)
	if !ok {
		t.Fatal("no journey root found")
	}
	if b.sum() != b.total || b.total != 1000 {
		t.Fatalf("budget sums to %d of %d", b.sum(), b.total)
	}
	// commit: [280,320] under the dispatch rt's tail and the gap, [320,340]
	// belongs to the later-started rt poll, [340,700] is taken back from
	// the parked poll.
	if got := byName(t, spans, "mailbox commit").self; got != 40+360 {
		t.Errorf("mailbox commit self = %d, want 400", got)
	}
	if got := byName(t, spans, "serve poll").self; got != 180 {
		t.Errorf("parked poll self = %d, want only the 180 ns in which nothing else ran", got)
	}
	if got := b.self[catPollPark]; got != 180 {
		t.Errorf("budget wake-up wait = %d, want 180", got)
	}
	if p := byName(t, spans, "mailbox commit").Parent; spans[p].Name != journeyRootName {
		t.Errorf("a span no request contains belongs to the journey root, got %q", spans[p].Name)
	}
}

func TestBudgetCutsOffWorkThatOutlivesTheJourney(t *testing.T) {
	spans := []span{
		sp(journeyRootName, catDevice, 100, 200),
		sp("journal clean-up", catJournal, 190, 260), // asynchronous tail
		sp("upload", catDevice, 0, 50),               // the reconnect cycle's other phase
		sp("rt upload", catRT, 10, 40),
	}
	b, ok := journeyBudget(spans)
	if !ok || b.total != 100 || b.sum() != 100 {
		t.Fatalf("budget %+v ok=%v, want total 100 fully attributed", b, ok)
	}
	if b.self[catJournal] != 10 || b.self[catRT] != 0 {
		t.Errorf("journal %d (want the 10 inside the root), rt %d (want 0: the upload is not the journey)", b.self[catJournal], b.self[catRT])
	}
	if got := byName(t, spans, "journal clean-up").self; got != 70 {
		t.Errorf("outside the budget a span keeps its whole self time, got %d", got)
	}
	if _, ok := journeyBudget([]span{sp("rt", catRT, 0, 10)}); ok {
		t.Error("a journey with no root span has no budget")
	}
}

func TestSpansBelongToTheJourneyThatStartedThem(t *testing.T) {
	tr := newTracer()
	tr.journey.Store(7)
	m := tr.begin()
	tr.journey.Store(8) // the next journey begins while this span is still open
	tr.record("tail", catJournal, m)
	if got := tr.spans[0].Journey; got != 7 {
		t.Errorf("span recorded under journey %d, want 7", got)
	}
}
