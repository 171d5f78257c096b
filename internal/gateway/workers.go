package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// errOutboundClosed is returned for outbound work asked for after
// Gateway.Close.
var errOutboundClosed = errors.New("gateway: closed")

// outbound bounds one kind of outbound work — agent chasing and
// management calls, or mailbox migration pulls — to cap(slots)
// concurrent calls, so a burst of requests cannot open an unbounded
// number of outbound connections. A caller holds a slot while its fn
// runs on the caller's own goroutine; callers beyond the bound wait,
// honouring their context.
type outbound struct {
	slots   chan struct{}
	closed  chan struct{}
	once    sync.Once
	waiting atomic.Int64
	logf    func(format string, args ...any)
}

func newOutbound(size int, logf func(format string, args ...any)) *outbound {
	if size < 1 {
		size = 1
	}
	return &outbound{slots: make(chan struct{}, size), closed: make(chan struct{}), logf: logf}
}

// run takes a slot, runs fn with ctx and releases the slot. A nil
// return guarantees fn ran to completion; it returns an error when ctx
// ended while the caller waited, when the gateway is closed, or when fn
// panicked. Once running, fn is expected to observe ctx itself (every
// outbound transport call does).
func (o *outbound) run(ctx context.Context, fn func(context.Context)) (err error) {
	o.waiting.Add(1)
	select {
	case o.slots <- struct{}{}:
	case <-ctx.Done():
		err = ctx.Err()
	case <-o.closed:
		err = errOutboundClosed
	}
	o.waiting.Add(-1)
	if err != nil {
		return err
	}
	defer func() { <-o.slots }()
	// A slot freed by a finishing call can race close for it.
	select {
	case <-o.closed:
		return errOutboundClosed
	default:
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("gateway: outbound call panic: %v", r)
			if o.logf != nil {
				o.logf("%v", err)
			}
		}
	}()
	fn(ctx)
	return nil
}

// close fails every waiting and later run, then returns once every
// running fn has released its slot: it takes all the slots itself and
// never gives them back.
func (o *outbound) close() {
	o.once.Do(func() {
		close(o.closed)
		for i := 0; i < cap(o.slots); i++ {
			o.slots <- struct{}{}
		}
	})
}
