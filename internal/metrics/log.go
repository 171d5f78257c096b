package metrics

import (
	"fmt"
	"log"
	"sync"
)

// Logger is a component-tagged "log once" latch. Every line reads
// `[component] warn: …` so daemon logs are grep-able by subsystem; it is
// the one place the gateway's store-wedge gate, cluster fencing and the
// location relay's refusals route through, so a condition that persists
// logs once, not once per request.
//
// A nil *Logger is valid and silent, so libraries can log
// unconditionally without nil checks at every site.
type Logger struct {
	component string
	sink      func(format string, args ...any)

	mu   sync.Mutex
	once map[string]bool
}

// NewLogger returns a logger tagged with component writing to sink
// (log.Printf when sink is nil).
func NewLogger(component string, sink func(format string, args ...any)) *Logger {
	if sink == nil {
		sink = log.Printf
	}
	return &Logger{component: component, sink: sink, once: map[string]bool{}}
}

// Oncef logs the first time key is seen, then suppresses repeats until
// ResetOnce(key): a wedged store or a raised fence logs once, not once
// per request, and a recovery can re-arm the latch.
func (l *Logger) Oncef(key, format string, args ...any) {
	if l == nil {
		return
	}
	l.mu.Lock()
	seen := l.once[key]
	l.once[key] = true
	l.mu.Unlock()
	if !seen {
		l.sink("[%s] warn: %s", l.component, fmt.Sprintf(format, args...))
	}
}

// ResetOnce re-arms a Oncef key (e.g. the condition it reported has
// cleared). It reports whether the key had fired.
func (l *Logger) ResetOnce(key string) bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	seen := l.once[key]
	delete(l.once, key)
	l.mu.Unlock()
	return seen
}
