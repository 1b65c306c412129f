package core

// The inbox is the one way work from other goroutines enters the Network
// component: decoded inbound messages (from the transport read loops),
// send outcomes (from the transport's notify callbacks) and supervision
// status events (from channel goroutines) all join one mutex-guarded
// queue in push order. Only a push into an empty queue wakes the
// component, and one handler then publishes everything queued when it
// started — so a decoded batch of N messages costs one SelfTrigger, one
// mailbox entry and one dispatch instead of N, while the three kinds keep
// exactly the relative order in which they were pushed.

import (
	"sync"

	"github.com/kompics/kompicsmessaging-go/internal/kompics"
	"github.com/kompics/kompicsmessaging-go/internal/transport"
)

// maxInboxCap bounds the queue slice kept between drains; one that a
// burst grew past it is let go.
const maxInboxCap = 1024

// inboxItem is one queued hand-off: a decoded message, a status event,
// or otherwise a send outcome.
type inboxItem struct {
	msg    Msg
	status *transport.StatusEvent
	id     uint64
	err    error
}

// drainInbox is the self-event that wakes the component for the inbox.
type drainInbox struct{}

type inbox struct {
	comp *kompics.Component

	mu sync.Mutex //kmlint:guarded
	// items is the live queue; spare is the slice the last drain
	// finished with, swapped in by the next drain.
	items, spare []inboxItem
}

// push queues one send outcome or status event.
func (b *inbox) push(it inboxItem) {
	b.mu.Lock()
	wake := len(b.items) == 0
	b.items = append(b.items, it)
	b.mu.Unlock()
	if wake {
		b.comp.SelfTrigger(drainInbox{})
	}
}

// pushMsgs queues a decoded batch's messages in order. It only copies
// them, so the caller may reuse msgs once it returns.
func (b *inbox) pushMsgs(msgs []Msg) {
	if len(msgs) == 0 {
		return
	}
	b.mu.Lock()
	wake := len(b.items) == 0
	for _, m := range msgs {
		b.items = append(b.items, inboxItem{msg: m})
	}
	b.mu.Unlock()
	if wake {
		b.comp.SelfTrigger(drainInbox{})
	}
}

// drain publishes, in queue order, everything queued when it started,
// leaving an empty queue so that the next push wakes the component
// again. It runs on the component thread, as the drainInbox handler.
func (n *Network) drain() {
	b := &n.inbox
	b.mu.Lock()
	items := b.items
	b.items, b.spare = b.spare[:0], nil
	b.mu.Unlock()
	for i := range items {
		switch it := &items[i]; {
		case it.msg != nil:
			n.ctx.Trigger(it.msg, n.port)
		case it.status != nil:
			n.publishStatus(*it.status)
		default:
			n.ctx.Trigger(NotifyResp{ID: it.id, Err: it.err}, n.port)
		}
	}
	// Keep the drained slice for the drain after next.
	clear(items)
	if cap(items) <= maxInboxCap {
		b.mu.Lock()
		b.spare = items[:0]
		b.mu.Unlock()
	}
}
