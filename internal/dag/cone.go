// Cone extraction for ECO re-sizing: after an accepted edit batch only
// a small region of the DAG has stale sizing, so the D/W loop should
// run on a subproblem whose vertex count scales with the edit, not the
// circuit.  ExtractCone builds that subproblem against *frozen
// boundary timing*: everything outside the cone keeps its current
// sizes and delays, and the boundary is encoded with two kinds of
// fixed-delay terminals (Problem.FixedDelay):
//
//   - a virtual PI per out-of-cone fanin u, whose delay is u's frozen
//     finish time — cone gates see exactly the arrival they see today;
//   - a pad per cone gate v with an out-of-cone fanout w, whose delay
//     is T − RA(w) where RA(w) is w's required arrival under frozen
//     out-of-cone delays — the cone may consume slack up to, and no
//     further than, what the frozen downstream logic leaves it.
//
// Membership is the forward cone Reachable(seeds) closed under the
// coupling CSR's transpose: resizing a cone gate changes the delay of
// every row mentioning its size (its drivers), so those rows join the
// cone as sizable members ("the ring").  The closure is taken once,
// not to a fixed point — a ring gate's own drivers stay frozen — so a
// cone solve is an approximation whose residual error shows up as a
// boundary-arrival drift.  Callers MUST reconcile: re-time the full
// graph at the merged sizes and fall back (widen, or full re-size)
// when the target is missed (see internal/core's cone session).
package dag

import (
	"fmt"
	"math"
	"sort"

	"minflo/internal/delay"
	"minflo/internal/graph"
)

// Cone is a cone-scoped subproblem plus the index maps needed to seed
// it from, and merge it back into, the full problem's size vector.
type Cone struct {
	// Sub is the cone-scoped problem: vertices [0, NumSizable) are the
	// cone's gates, then one virtual PI per distinct out-of-cone fanin
	// (ascending full-graph order), then one pad per escaping gate,
	// then the sink.  Sub.FixedDelay carries the frozen boundary
	// timing; Sub.PIs lists only the virtual PIs — pads deliberately
	// float in the D-phase, constrained by their edges alone.
	Sub *Problem
	// Members maps cone-local sizable index → full-problem sizable
	// index, ascending.
	Members []int
}

// ConeMembers returns the sizable members of the cone around seeds —
// the forward-reachable sizable set plus one transpose ring (every row
// whose delay mentions a cone member's size) — in ascending order.
// It is the cheap membership-only prefix of ExtractCone, so callers
// can apply size-based fallback policies before building anything.
func (p *Problem) ConeMembers(seeds []int) []int {
	n := p.NumSizable
	reach := p.G.Reachable(seeds)
	inSub := make([]bool, n)
	for i := 0; i < n; i++ {
		if reach[i] {
			inSub[i] = true
		}
	}
	return p.closeCone(inSub)
}

// ConeMembersTimed is ConeMembers grown backward over the timing-moved
// region: starting from members whose frozen finish time is off their
// required finish at target T, sizable fanins that are themselves
// moved join the cone transitively.  "Moved" is two-sided:
//
//   - violated (finish > RF): some gate on every violated path MUST
//     speed up, and freezing those out makes the cone shoulder repairs
//     a full re-size would spread across the whole path;
//   - freed (RF − finish beyond a macroscopic tolerance): at a
//     converged seed every above-minimum gate sits on a near-critical
//     path, so macroscopic slack marks gates an edit just relaxed —
//     the ones a full re-size downsizes to recover area.  Freezing
//     them out leaves the cone answer with slack it cannot sell.
//
// These are the vertices a full re-size actually touches — their
// absence was the dominant cone-vs-full area gap in both directions.
// x and finish are the frozen sizes and full-graph finish times
// ExtractCone will be called with.
func (p *Problem) ConeMembersTimed(seeds []int, x, finish []float64, T float64) []int {
	n := p.NumSizable
	reach := p.G.Reachable(seeds)
	inSub := make([]bool, n)
	for i := 0; i < n; i++ {
		if reach[i] {
			inSub[i] = true
		}
	}
	d := p.Delays(x)
	rf := p.requiredFinish(d, T)
	tol := 1e-9 * math.Abs(T)
	freeTol := coneFreedSlackTol * math.Abs(T)
	moved := func(v int) bool {
		return finish[v]-rf[v] > tol || rf[v]-finish[v] > freeTol
	}
	var queue []int
	for v := 0; v < n; v++ {
		if inSub[v] && moved(v) {
			queue = append(queue, v)
		}
	}
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		for _, e := range p.G.In(v) {
			u := p.G.Edge(e).From
			if u < n && !inSub[u] && moved(u) {
				inSub[u] = true
				queue = append(queue, u)
			}
		}
	}
	return p.closeCone(inSub)
}

// coneFreedSlackTol is the relative slack (vs the target) beyond which
// a vertex counts as freed by an edit rather than sitting at a
// converged answer's residual slack.  Converged D/W answers leave
// above-minimum gates within a hair of critical; an edit's relaxation
// is macroscopic.
const coneFreedSlackTol = 5e-4

// closeCone adds one transpose ring to a member mask — every row whose
// delay mentions a member's size joins as sizable — and returns the
// ascending member list.  Ring gates (and backward-grown members) can
// have out-of-cone fanouts; their residual couplings are what
// reconciliation checks.
func (p *Problem) closeCone(inSub []bool) []int {
	n := p.NumSizable
	base := append([]bool(nil), inSub...)
	for j := 0; j < n; j++ {
		if !base[j] {
			continue
		}
		rows, _ := p.csr.Incoming(j)
		for _, i := range rows {
			if int(i) < n && !inSub[i] {
				inSub[i] = true
			}
		}
	}
	members := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if inSub[i] {
			members = append(members, i)
		}
	}
	return members
}

// requiredFinish runs the backward required-finish pass over the full
// graph at frozen delays d: RF[sink] = T, RF[v] = min over fanouts w of
// RF[w] − d[w].
func (p *Problem) requiredFinish(d []float64, T float64) []float64 {
	rf := make([]float64, p.G.N())
	for i := range rf {
		rf[i] = math.Inf(1)
	}
	rf[p.Sink] = T
	topo := p.topo
	for k := len(topo) - 1; k >= 0; k-- {
		v := topo[k]
		if v == p.Sink {
			continue
		}
		best := math.Inf(1)
		for _, e := range p.G.Out(v) {
			w := p.G.Edge(e).To
			if ra := rf[w] - d[w]; ra < best {
				best = ra
			}
		}
		rf[v] = best
	}
	return rf
}

// WidenMembers grows a member set by one fanin layer and re-closes it
// (forward cone + ring) — the deterministic reconciliation retry step.
// The result is a strict superset of members.
func (p *Problem) WidenMembers(members []int) []int {
	n := p.NumSizable
	seed := make([]bool, n)
	for _, v := range members {
		seed[v] = true
	}
	for _, v := range members {
		for _, e := range p.G.In(v) {
			if u := p.G.Edge(e).From; u < n {
				seed[u] = true
			}
		}
	}
	seeds := make([]int, 0, len(members)*2)
	for i := 0; i < n; i++ {
		if seed[i] {
			seeds = append(seeds, i)
		}
	}
	return p.ConeMembers(seeds)
}

// ExtractCone builds the cone-scoped subproblem over members (as
// returned by ConeMembers or WidenMembers) at frozen sizes x, frozen
// full-graph finish times (sta.Arrivals.AppendFinish), and critical-path
// target T.  The construction is a pure function of its arguments —
// ascending orders throughout — so replay determinism is preserved.
func (p *Problem) ExtractCone(members []int, x, finish []float64, T float64) (*Cone, error) {
	n := p.NumSizable
	if len(x) != n {
		return nil, fmt.Errorf("dag: ExtractCone sizes length %d != %d sizable", len(x), n)
	}
	if len(finish) != p.G.N() {
		return nil, fmt.Errorf("dag: ExtractCone finish length %d != %d vertices", len(finish), p.G.N())
	}
	if len(members) == 0 {
		return nil, fmt.Errorf("dag: ExtractCone with no members")
	}
	loc := make([]int, n)
	for i := range loc {
		loc[i] = -1
	}
	for lv, v := range members {
		if v < 0 || v >= n {
			return nil, fmt.Errorf("dag: cone member %d out of sizable range", v)
		}
		loc[v] = lv
	}
	nSub := len(members)

	// Frozen delays and the backward required-finish pass for the pads —
	// over CONE-AVOIDING paths only: RF[sink] = T, RF[v] = min over
	// out-of-cone fanouts w of RF[w] − d[w].  A path that re-enters the
	// cone is represented inside the subproblem (the re-entry vertex's
	// virtual PI carries its frozen arrival), so letting it constrain a
	// pad too would double-count the very violation the cone is being
	// solved to fix — the pre-fix failure mode was pads tightened by the
	// edited gate's own stale delay, forcing the cone to over-size
	// against a requirement it was about to repair.  The frozen re-entry
	// arrival is stale when the cone slows a re-entrant path's source;
	// the caller's full-graph reconciliation is the authoritative check.
	d := p.Delays(x)
	inConeMask := make([]bool, p.G.N())
	for _, v := range members {
		inConeMask[v] = true
	}
	rf := make([]float64, p.G.N())
	for i := range rf {
		rf[i] = math.Inf(1)
	}
	rf[p.Sink] = T
	topo := p.topo
	for k := len(topo) - 1; k >= 0; k-- {
		v := topo[k]
		if v == p.Sink {
			continue
		}
		best := math.Inf(1)
		for _, e := range p.G.Out(v) {
			w := p.G.Edge(e).To
			if w != p.Sink && inConeMask[w] {
				continue
			}
			if ra := rf[w] - d[w]; ra < best {
				best = ra
			}
		}
		rf[v] = best
	}

	// Boundary terminals.  Virtual PIs: one per distinct out-of-cone
	// fanin, ascending full-graph order.  Pads: one per cone gate with
	// a finite escape requirement, in member order.
	inCone := func(v int) bool { return v < n && loc[v] >= 0 }
	seen := make([]bool, p.G.N())
	var vpiSrc []int
	for _, v := range members {
		for _, e := range p.G.In(v) {
			if u := p.G.Edge(e).From; !inCone(u) && !seen[u] {
				seen[u] = true
				vpiSrc = append(vpiSrc, u)
			}
		}
	}
	sort.Ints(vpiSrc)
	nVPI := len(vpiSrc)
	vpiLoc := make(map[int]int, nVPI)
	for i, u := range vpiSrc {
		vpiLoc[u] = nSub + i
	}

	minRA := make([]float64, nSub)
	var padOf []int // member-local indices that escape, ascending
	for lv, v := range members {
		best := math.Inf(1)
		for _, e := range p.G.Out(v) {
			w := p.G.Edge(e).To
			if inCone(w) {
				continue
			}
			var ra float64
			if w == p.Sink {
				ra = T
			} else {
				ra = rf[w] - d[w]
			}
			if ra < best {
				best = ra
			}
		}
		minRA[lv] = best
		if !math.IsInf(best, 1) {
			padOf = append(padOf, lv)
		}
	}
	nPad := len(padOf)

	padBase := nSub + nVPI
	sink := padBase + nPad
	total := sink + 1
	g := graph.New(total)
	kind := make([]VertexKind, total)
	labels := make([]string, total)
	fd := make([]float64, total)
	pis := make([]int, nVPI)
	for lv, v := range members {
		kind[lv] = KindSizable
		labels[lv] = p.Labels[v]
	}
	for i, u := range vpiSrc {
		lv := nSub + i
		kind[lv] = KindPI
		labels[lv] = "$in:" + p.Labels[u]
		fd[lv] = finish[u]
		pis[i] = lv
	}
	for i, lv := range padOf {
		pv := padBase + i
		// Pads get KindPI (fixed-delay, non-sizable) but are NOT
		// listed in PIs: the D-phase pins PIs at zero retardation,
		// while a pad must float so its edges alone cap the escaping
		// gate's finish at RA.
		kind[pv] = KindPI
		labels[pv] = "$out:" + p.Labels[members[lv]]
		pd := T - minRA[lv]
		if pd < 0 {
			pd = 0 // fp guard: RA ≤ T by construction
		}
		fd[pv] = pd
	}
	kind[sink] = KindSink
	labels[sink] = "$O"

	// Edges: intra-cone in full-edge order, then virtual-PI fanins,
	// then the pad chains v → pad → sink.
	for lv, v := range members {
		for _, e := range p.G.Out(v) {
			if w := p.G.Edge(e).To; inCone(w) {
				g.AddEdge(lv, loc[w])
			}
		}
	}
	for lv, v := range members {
		for _, e := range p.G.In(v) {
			if u := p.G.Edge(e).From; !inCone(u) {
				g.AddEdge(vpiLoc[u], lv)
			}
		}
	}
	for i, lv := range padOf {
		g.AddEdge(lv, padBase+i)
		g.AddEdge(padBase+i, sink)
	}

	// Coefficients: couplings to cone members are remapped to local
	// indices; couplings to frozen gates fold A·x_frozen into Const.
	subCo := make([]delay.Coeffs, nSub)
	areaW := make([]float64, nSub)
	for lv, v := range members {
		c := p.Coeffs[v]
		nc := delay.Coeffs{Self: c.Self, Const: c.Const}
		for _, t := range c.Terms {
			if inCone(t.J) {
				nc.Terms = append(nc.Terms, delay.Term{J: loc[t.J], A: t.A})
			} else {
				nc.Const += t.A * x[t.J]
			}
		}
		subCo[lv] = nc
		areaW[lv] = p.AreaW[v]
	}

	sub := &Problem{
		Name:       p.Name + "#cone",
		G:          g,
		Kind:       kind,
		NumSizable: nSub,
		Sink:       sink,
		PIs:        pis,
		Coeffs:     subCo,
		AreaW:      areaW,
		MinSize:    p.MinSize,
		MaxSize:    p.MaxSize,
		Labels:     labels,
		FixedDelay: fd,
	}
	var err error
	if sub.topo, err = g.TopoOrder(); err != nil {
		return nil, fmt.Errorf("dag: cone subgraph: %w", err)
	}
	sub.csr = delay.NewCSR(sub.Coeffs)
	return &Cone{Sub: sub, Members: members}, nil
}

// SeedSizes fills the cone-local seed vector from the full sizes.
func (c *Cone) SeedSizes(xFull []float64) []float64 {
	xs := make([]float64, len(c.Members))
	for lv, v := range c.Members {
		xs[lv] = xFull[v]
	}
	return xs
}

// MergeSizes writes the cone-local solution back into the full size
// vector; gates outside the cone are untouched.
func (c *Cone) MergeSizes(xFull, xSub []float64) {
	for lv, v := range c.Members {
		xFull[v] = xSub[lv]
	}
}
