package lint

import (
	"sort"
	"strings"
)

// LockOrder checks the module-wide lock-acquisition graph for cycles.
// The facts layer records an edge A→B whenever mutex class B is acquired
// — directly, or inside any transitively summarized callee, in this
// package or another — while class A is held. Two findings exist:
//
//   - A cycle through distinct classes: some goroutine can hold A wanting
//     B while another holds B wanting A. The canonical clean patterns are
//     sequential acquisition (QueueStats locks the registry, then
//     releases it, before touching a channel) and deferred-unlock getters
//     whose critical section ends before the caller takes its next lock —
//     neither produces an edge.
//   - Same-class (stripe) nesting: shard[j].mu acquired while shard[i].mu
//     is held. Stripes are interchangeable instances of one lock domain,
//     so nesting them is safe only in a canonical order; the one shape
//     the analyzer can prove — an ascending slice/array sweep
//     re-acquiring at the same site each iteration (closeInbound's
//     quiescence loop) — is exempt, everything else is flagged.
//
// Edges are reported at their acquisition site, restricted to files of
// the package under analysis so a module run reports each edge exactly
// once, in the package that contains it.
var LockOrder = &Analyzer{
	Name: "lockorder",
	Doc:  "the module's lock-acquisition graph must stay acyclic; stripe locks nest only in ascending index order",
	Run:  runLockOrder,
}

func runLockOrder(pass *Pass) {
	edges := pass.Facts.LockEdges()
	if len(edges) == 0 {
		return
	}

	adj := map[MutexClass][]MutexClass{}
	for _, e := range edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	comp := lockSCCs(adj)

	inPkg := map[string]bool{}
	for _, f := range pass.Files {
		inPkg[pass.Fset.Position(f.Pos()).Filename] = true
	}

	for _, e := range edges {
		if !inPkg[pass.Fset.Position(e.Pos).Filename] {
			continue
		}
		if e.From == e.To {
			pass.Reportf(e.Pos,
				"same-class lock nesting: %s acquired while another %s is held; stripe locks nest only in a provable ascending sweep — release before the next acquisition or lock in index order",
				e.To.short(), e.From.short())
			continue
		}
		if c, ok := comp[e.From]; ok && c == comp[e.To] {
			pass.Reportf(e.Pos,
				"lock-order cycle: %s acquired while holding %s, but the module also acquires them in the reverse order (%s); pick one global order",
				e.To.short(), e.From.short(), cycleString(adj, comp, e.To, e.From))
		}
	}
}

// lockSCCs condenses the class graph (iterative Tarjan over sorted
// classes for determinism) and returns each class's component id.
// Classes in a component of size ≥ 2 are on a cycle.
func lockSCCs(adj map[MutexClass][]MutexClass) map[MutexClass]int {
	classes := map[MutexClass]bool{}
	for from, tos := range adj {
		classes[from] = true
		for _, to := range tos {
			classes[to] = true
		}
	}
	order := make([]MutexClass, 0, len(classes))
	for c := range classes {
		order = append(order, c)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })

	index := map[MutexClass]int{}
	lowlink := map[MutexClass]int{}
	onStack := map[MutexClass]bool{}
	comp := map[MutexClass]int{}
	compSize := map[int]int{}
	var stack []MutexClass
	next, ncomp := 1, 0

	var strongconnect func(v MutexClass)
	strongconnect = func(v MutexClass) {
		index[v], lowlink[v] = next, next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for _, w := range adj[v] {
			if index[w] == 0 {
				strongconnect(w)
				lowlink[v] = min(lowlink[v], lowlink[w])
			} else if onStack[w] {
				lowlink[v] = min(lowlink[v], index[w])
			}
		}
		if lowlink[v] == index[v] {
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp[w] = ncomp
				compSize[ncomp]++
				if w == v {
					break
				}
			}
			ncomp++
		}
	}
	for _, c := range order {
		if index[c] == 0 {
			strongconnect(c)
		}
	}
	// Only multi-class components mark cycles; drop singletons so the
	// comp[from] == comp[to] test can't fire on an acyclic edge.
	for c, id := range comp {
		if compSize[id] < 2 {
			delete(comp, c)
		}
	}
	return comp
}

// cycleString renders the return path that closes the cycle: a shortest
// walk from `from` back to `to` inside the component, e.g.
// "b.mu -> a.mu". BFS over sorted adjacency keeps it deterministic.
func cycleString(adj map[MutexClass][]MutexClass, comp map[MutexClass]int, from, to MutexClass) string {
	want := comp[from]
	prev := map[MutexClass]MutexClass{from: from}
	queue := []MutexClass{from}
	for len(queue) > 0 && prev[to] == "" {
		v := queue[0]
		queue = queue[1:]
		next := append([]MutexClass(nil), adj[v]...)
		sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
		for _, w := range next {
			if comp[w] != want {
				continue
			}
			if _, seen := prev[w]; seen {
				continue
			}
			prev[w] = v
			queue = append(queue, w)
		}
	}
	if _, ok := prev[to]; !ok {
		return from.short() + " -> ... -> " + to.short()
	}
	var path []string
	for v := to; ; v = prev[v] {
		path = append(path, v.short())
		if v == from {
			break
		}
	}
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return strings.Join(path, " -> ")
}
