package services

import (
	"sync"

	"pdagent/internal/mavm"
)

// Mailbox is a host-resident message board through which mobile agents
// "cooperate with each other by sharing and exchanging information and
// partial results" (paper §1; the mailbox scheme is the authors' own
// IEEE Computer 2002 design, cited as [1]). Agents address each other
// by topic, not identity, so producers and consumers never need to
// know where their peers currently are — they only need to visit the
// same mailbox host.
//
// Operations:
//
//	mail.post(topic, msg)   -> {ok, site, topic, queued}
//	mail.fetch(topic)       -> {ok, site, topic, messages: [..]} (drains)
//	mail.peek(topic)        -> {ok, site, topic, messages: [..]} (keeps)
//	mail.topics()           -> {ok, site, topics: [str]}
type Mailbox struct {
	mu     sync.Mutex
	site   string
	queues map[string][]mavm.Value
	// capacity bounds each topic's queue; posts beyond it are refused.
	capacity int
}

// DefaultMailboxCapacity bounds per-topic queues.
const DefaultMailboxCapacity = 256

// NewMailbox creates a mailbox for one host.
func NewMailbox(site string) *Mailbox {
	return &Mailbox{site: site, queues: map[string][]mavm.Value{}, capacity: DefaultMailboxCapacity}
}

// Services returns the registry entries for this mailbox.
func (m *Mailbox) Services() []Service {
	return []Service{
		Func{"mail.post", m.post},
		Func{"mail.fetch", m.fetch},
		Func{"mail.peek", m.peek},
		Func{"mail.topics", m.topics},
	}
}

func (m *Mailbox) post(args []mavm.Value) (mavm.Value, error) {
	topic, err := wantStr("mail.post", args, 0)
	if err != nil {
		return mavm.Nil(), err
	}
	if len(args) < 2 {
		return mavm.Nil(), argErrStr("mail.post", "needs a message argument")
	}
	msg, err := args[1].Clone()
	if err != nil {
		return mavm.Nil(), err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if len(m.queues[topic]) >= m.capacity {
		return failResult("mailbox topic full"), nil
	}
	m.queues[topic] = append(m.queues[topic], msg)
	return okResult("site", m.site, "topic", topic, "queued", int64(len(m.queues[topic]))), nil
}

func (m *Mailbox) fetch(args []mavm.Value) (mavm.Value, error) {
	return m.read(args, true)
}

func (m *Mailbox) peek(args []mavm.Value) (mavm.Value, error) {
	return m.read(args, false)
}

func (m *Mailbox) read(args []mavm.Value, drain bool) (mavm.Value, error) {
	op := "mail.peek"
	if drain {
		op = "mail.fetch"
	}
	topic, err := wantStr(op, args, 0)
	if err != nil {
		return mavm.Nil(), err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	msgs := m.queues[topic]
	out := make([]mavm.Value, len(msgs))
	copy(out, msgs)
	if drain {
		delete(m.queues, topic)
	} else {
		// A kept message goes out as a copy, so that no reader's change
		// reaches the queue, a later reader or a result another agent
		// delivered. post cloned it once, so cloning cannot fail.
		for i, msg := range msgs {
			out[i], _ = msg.Clone()
		}
	}
	return okResult("site", m.site, "topic", topic, "messages", mavm.NewList(out...)), nil
}

func (m *Mailbox) topics(_ []mavm.Value) (mavm.Value, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.queues))
	for t := range m.queues {
		names = append(names, t)
	}
	// Sorted for deterministic agents.
	for i := 0; i < len(names); i++ {
		for j := i + 1; j < len(names); j++ {
			if names[j] < names[i] {
				names[i], names[j] = names[j], names[i]
			}
		}
	}
	items := make([]mavm.Value, len(names))
	for i, n := range names {
		items[i] = mavm.Str(n)
	}
	return okResult("site", m.site, "topics", mavm.NewList(items...)), nil
}

// argErrStr builds the same error shape as the arg validators.
func argErrStr(name, msg string) error {
	return &serviceArgError{name: name, msg: msg}
}

type serviceArgError struct{ name, msg string }

func (e *serviceArgError) Error() string { return e.name + ": " + e.msg }
