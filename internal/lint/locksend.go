package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// LockSend flags channel operations and function-value callbacks performed
// between a mu.Lock() and its Unlock when the unlock is not deferred — the
// UDT conn/mux deadlock class. A send on an unbuffered (or full) channel
// parks the goroutine while it holds the mutex; if the receiver needs that
// same mutex to drain the channel, both sides wait forever. Calling a
// caller-supplied function value under the lock is the same bug one hop
// out: the callback may block, or reenter and self-deadlock.
//
// `mu.Lock(); defer mu.Unlock()` is exempt: with a deferred unlock a
// parked send still holds the lock, but panics and early returns cannot
// leave it held, and the pattern signals the critical section spans the
// whole function by design. The fix kmlint pushes toward is the one
// udt.Conn.dispatch uses: copy what you need under the lock, Unlock, then
// send or call.
//
// The check is a hook set over the held-lock walk (heldwalk.go), keyed by
// the receiver's printed form ("c.mu"), which is exact within one function
// for the field-or-local receivers the codebase uses. It visits only the
// values a statement evaluates: not assignment left-hand sides, x++
// operands, a send's channel operand, case lists, deferred calls'
// arguments, or select comm statements beyond reporting a comm send.
var LockSend = &Analyzer{
	Name: "locksend",
	Doc:  "no channel sends or function-value callbacks while holding a non-deferred mutex lock",
	Run:  runLockSend,
}

func runLockSend(pass *Pass) {
	w := &heldWalk{
		info:          pass.Info,
		key:           types.ExprString,
		deferReleases: true,
		skip:          siteLHS | siteIncDec | siteSendChan | siteCase | siteDeferArg | siteComm,
		onSend: func(s *ast.SendStmt, held heldSet) {
			reportHeld(pass, s.Pos(), held, "channel send")
		},
		onCall: func(call *ast.CallExpr, held heldSet) {
			if len(held) == 0 {
				return
			}
			if v := pass.calleeVar(call); v != nil {
				reportHeld(pass, call.Pos(), held, "callback through function value "+v.Name())
			}
		},
	}
	eachBody(pass.Files, func(_ string, body *ast.BlockStmt) bool {
		w.walk(body, heldSet{})
		return true
	})
}

// reportHeld reports what at pos once, naming the first held mutex in
// sorted order, if any is held.
func reportHeld(pass *Pass, pos token.Pos, held heldSet, what string) {
	mu := ""
	for k := range held {
		if mu == "" || k < mu {
			mu = k
		}
	}
	if mu != "" {
		pass.Reportf(pos,
			"%s while holding %s.Lock() without a deferred unlock can deadlock; unlock first or defer the unlock",
			what, mu)
	}
}
