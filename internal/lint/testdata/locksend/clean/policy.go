// policy.go pins how locksend walks a function today where the three
// held-lock checks (locksend, guarded, lockorder's facts) differ. Several
// shapes below are blind spots rather than safe code; they stay silent
// here until the checks' walking policies are unified on purpose.
package clean

// deferredUnlockCallback: the deferred unlock ends locksend's tracking,
// so a callback after it is not reported (the guarded check keeps the
// mutex held instead).
func deferredUnlockCallback(b *box) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cb()
}

// endlessArmMerged: an arm that waits in `for {}` and leaves only by
// return still takes part in the merge after the if, so the send on the
// fall-through path is not reported (lockorder's facts treat the loop as
// terminating).
func endlessArmMerged(b *box, wait func() bool) {
	b.mu.Lock()
	if len(b.ch) == 0 {
		b.mu.Unlock()
		for {
			if wait() {
				return
			}
		}
	}
	b.ch <- 1
	b.mu.Unlock()
}

// lockAllThenSignal: a loop body is scanned once, with the state at loop
// entry, so the send made while the previous boxes' locks are still held
// is not reported (lockorder's facts re-scan with the carried locks).
func lockAllThenSignal(bs []*box) {
	for _, b := range bs {
		b.ch <- 0
		b.mu.Lock()
	}
	for _, b := range bs {
		b.mu.Unlock()
	}
}

// commCallbackUnchecked: inside a select comm statement only a send is
// reported; a callback there is not.
func commCallbackUnchecked(b *box, src func() chan int) {
	b.mu.Lock()
	select {
	case v := <-src():
		_ = v
	default:
	}
	b.mu.Unlock()
}

// Callbacks in assignment left-hand sides, case lists, deferred-call
// arguments and x++ operands are not visited.
func lhsCallback(b *box, idx func() int, buf []int) {
	b.mu.Lock()
	buf[idx()] = 1
	b.mu.Unlock()
}

func caseCallback(b *box, pred func() bool) {
	b.mu.Lock()
	switch {
	case pred():
	}
	b.mu.Unlock()
}

func deferArgCallback(b *box, cb func() int) {
	b.mu.Lock()
	defer record(cb())
	b.mu.Unlock()
}

func incCallback(b *box, idx func() int, counts []int) {
	b.mu.Lock()
	counts[idx()]++
	b.mu.Unlock()
}

// sendLocked: locksend assumes nothing held on entry to a ...Locked
// method (lockorder's facts assume the receiver's mutex is).
func (b *box) sendLocked() {
	b.ch <- 1
}

func record(int) {}
