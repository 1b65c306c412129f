// policy.go pins a locksend walking rule the other held-lock checks do
// not share: the channel operand of a send is not visited, so a callback
// there adds no second finding beside the send's.
package bad

func sendOperandCallback(b *box, chans []chan int, pick func() int) {
	b.mu.Lock()
	chans[pick()] <- 1 // want "channel send while holding b.mu"
	b.mu.Unlock()
}
