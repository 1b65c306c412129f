// policy.go pins how lockorder's fact extraction walks a function today
// where the three held-lock checks (locksend, guarded, lockorder's facts)
// differ. Each b→a edge below closes a cycle with abNest (bad.go).
package bad

func readA(x *a) int {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.n
}

func sink(int) {}

// Select comm statements, case lists, deferred-call arguments and x++
// operands are all walked (locksend and guarded each skip some of them).
func commNest(x *a, y *b, ch chan int) {
	y.mu.Lock()
	defer y.mu.Unlock()
	select {
	case ch <- readA(x): // want "lock-order cycle: bad.a.mu acquired while holding bad.b.mu"
	default:
	}
}

func caseNest(x *a, y *b) {
	y.mu.Lock()
	defer y.mu.Unlock()
	switch {
	case readA(x) > 0: // want "lock-order cycle: bad.a.mu acquired while holding bad.b.mu"
	}
}

func deferArgNest(x *a, y *b) {
	y.mu.Lock()
	defer sink(readA(x)) // want "lock-order cycle: bad.a.mu acquired while holding bad.b.mu"
	y.mu.Unlock()
}

func incNest(x *a, y *b, counts []int) {
	y.mu.Lock()
	counts[readA(x)]++ // want "lock-order cycle: bad.a.mu acquired while holding bad.b.mu"
	y.mu.Unlock()
}

// pullLocked: a ...Locked method starts with its receiver's mutex
// classes held, so this nesting is the a→b direction.
func (x *a) pullLocked(y *b) {
	y.mu.Lock() // want "lock-order cycle: bad.b.mu acquired while holding bad.a.mu"
	y.n = x.n
	y.mu.Unlock()
}

// lockDescending: only an ascending sweep is exempt from same-class
// nesting; a descending counter loop is not.
func lockDescending(xs []*a) {
	for i := len(xs) - 1; i >= 0; i-- {
		xs[i].mu.Lock() // want "same-class lock nesting: bad.a.mu acquired while another bad.a.mu is held"
	}
	for _, x := range xs {
		x.mu.Unlock()
	}
}
