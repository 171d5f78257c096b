package services

import (
	"fmt"
	"testing"

	"pdagent/internal/mavm"
)

func TestMailboxPostFetch(t *testing.T) {
	m := NewMailbox("hub")
	r := NewRegistry()
	r.Register(m.Services()...)

	res := callOK(t, r, "mail.post", mavm.Str("results"), mavm.Str("partial-1"))
	if !res["ok"].AsBool() || res["queued"].AsInt() != 1 {
		t.Fatalf("post = %v", res)
	}
	callOK(t, r, "mail.post", mavm.Str("results"), mavm.Int(42))

	// Peek keeps messages.
	res = callOK(t, r, "mail.peek", mavm.Str("results"))
	if got := len(res["messages"].ListItems()); got != 2 {
		t.Fatalf("peek = %d", got)
	}
	// Fetch drains.
	res = callOK(t, r, "mail.fetch", mavm.Str("results"))
	msgs := res["messages"].ListItems()
	if len(msgs) != 2 || msgs[0].AsStr() != "partial-1" || msgs[1].AsInt() != 42 {
		t.Fatalf("fetch = %v", res["messages"])
	}
	res = callOK(t, r, "mail.fetch", mavm.Str("results"))
	if got := len(res["messages"].ListItems()); got != 0 {
		t.Fatalf("after drain = %d", got)
	}
}

func TestMailboxTopicsAndCapacity(t *testing.T) {
	m := NewMailbox("hub")
	r := NewRegistry()
	r.Register(m.Services()...)

	callOK(t, r, "mail.post", mavm.Str("b-topic"), mavm.Int(1))
	callOK(t, r, "mail.post", mavm.Str("a-topic"), mavm.Int(2))
	res := callOK(t, r, "mail.topics")
	topics := res["topics"].ListItems()
	if len(topics) != 2 || topics[0].AsStr() != "a-topic" || topics[1].AsStr() != "b-topic" {
		t.Fatalf("topics = %v (want sorted)", res["topics"])
	}

	// Capacity bound.
	for i := 0; i < DefaultMailboxCapacity; i++ {
		callOK(t, r, "mail.post", mavm.Str("flood"), mavm.Int(int64(i)))
	}
	res = callOK(t, r, "mail.post", mavm.Str("flood"), mavm.Int(-1))
	if res["ok"].AsBool() {
		t.Fatal("over-capacity post accepted")
	}

	// Bad args.
	if _, err := r.Call("mail.post", []mavm.Value{mavm.Str("only-topic")}); err == nil {
		t.Fatal("post without message accepted")
	}
	if _, err := r.Call("mail.fetch", []mavm.Value{mavm.Int(1)}); err == nil {
		t.Fatal("non-string topic accepted")
	}
}

func TestMailboxMessagesDetached(t *testing.T) {
	m := NewMailbox("hub")
	r := NewRegistry()
	r.Register(m.Services()...)
	payload := mavm.NewList(mavm.Int(1))
	callOK(t, r, "mail.post", mavm.Str("t"), payload)
	// Mutating the poster's copy must not affect the queued message.
	payload.ListItems()[0] = mavm.Int(99)
	res := callOK(t, r, "mail.fetch", mavm.Str("t"))
	if res["messages"].ListItems()[0].ListItems()[0].AsInt() != 1 {
		t.Fatal("queued message aliases poster's value")
	}
}

func TestMailboxManyTopics(t *testing.T) {
	m := NewMailbox("hub")
	r := NewRegistry()
	r.Register(m.Services()...)
	for i := 0; i < 50; i++ {
		callOK(t, r, "mail.post", mavm.Str(fmt.Sprint("topic-", i)), mavm.Int(int64(i)))
	}
	res := callOK(t, r, "mail.topics")
	if got := len(res["topics"].ListItems()); got != 50 {
		t.Fatalf("topics = %d", got)
	}
}

// TestMailboxPeekHandsOutCopies: a reader that changes a peeked message
// changes its own copy only, not what the queue or a later reader holds.
func TestMailboxPeekHandsOutCopies(t *testing.T) {
	m := NewMailbox("hub")
	r := NewRegistry()
	r.Register(m.Services()...)
	callOK(t, r, "mail.post", mavm.Str("t"), mavm.NewList(mavm.Int(1)))

	first := callOK(t, r, "mail.peek", mavm.Str("t"))["messages"].ListItems()[0]
	first.ListItems()[0] = mavm.Int(99)
	if got := callOK(t, r, "mail.fetch", mavm.Str("t"))["messages"].ListItems()[0].String(); got != "[1]" {
		t.Fatalf("a peeked message changed by its reader is fetched as %s", got)
	}
}
