// Package dag builds the sizing DAG the optimizer operates on
// (paper §2.1–2.2): one vertex per sizing variable (gate in gate-sizing
// mode, transistor in transistor-sizing mode), plus vertices for the
// primary inputs and a single dummy sink O collecting all primary
// outputs (Corollary 1), and the dummy-vertex augmentation used by the
// D-phase (Figure 5).
package dag

import (
	"fmt"
	"sync"

	"minflo/internal/cell"
	"minflo/internal/circuit"
	"minflo/internal/delay"
	"minflo/internal/graph"
)

// VertexKind classifies vertices of the sizing DAG.
type VertexKind int8

const (
	// KindSizable vertices carry a sizing variable and a delay.
	KindSizable VertexKind = iota
	// KindPI vertices model primary inputs (zero delay, pinned in the
	// D-phase).
	KindPI
	// KindSink is the dummy output collector O (zero delay, pinned).
	KindSink
	// KindDummy marks D-phase dummy vertices Dmy(i) in augmented graphs.
	KindDummy
)

// Problem is a sizing problem instance: the DAG, the simple-monotonic
// delay coefficients of every sizable vertex, area weights, and bounds.
type Problem struct {
	Name string
	// G has vertices [0,NumSizable) sizable, then PIs, then the sink.
	G          *graph.Digraph
	Kind       []VertexKind
	NumSizable int
	Sink       int
	PIs        []int
	// Coeffs[i] describes delay(i); Term.J indexes sizable vertices.
	Coeffs []delay.Coeffs
	// AreaW[i] is the area weight of sizable vertex i (area = Σ w_i·x_i).
	AreaW            []float64
	MinSize, MaxSize float64
	Labels           []string

	topo []int      // cached topological order of G
	csr  *delay.CSR // build-once flattened coupling structure
}

// buildScratch holds the reusable construction buffers of GateLevel —
// per-source dedup stamps and degree-bound counters — pooled so repeat
// table sweeps reuse them instead of reallocating per problem.
type buildScratch struct {
	lastTarget []int32 // dedup: lastTarget[u] == current target marker
	outDeg     []int32
	inDeg      []int32
}

var buildPool = sync.Pool{New: func() any { return new(buildScratch) }}

func (sc *buildScratch) sized(n int) (lastTarget, outDeg, inDeg []int32) {
	if cap(sc.lastTarget) < n {
		sc.lastTarget = make([]int32, n)
		sc.outDeg = make([]int32, n)
		sc.inDeg = make([]int32, n)
	}
	lastTarget = sc.lastTarget[:n]
	outDeg = sc.outDeg[:n]
	inDeg = sc.inDeg[:n]
	for i := 0; i < n; i++ {
		lastTarget[i] = -1
		outDeg[i] = 0
		inDeg[i] = 0
	}
	return lastTarget, outDeg, inDeg
}

// GateLevel builds the gate-sizing problem for a circuit: one sizable
// vertex per gate with equivalent-inverter Elmore coefficients.
//
// Construction is arena-based: adjacency is reserved up front from
// degree bounds, edge dedup runs on pooled stamp arrays instead of a
// map, and the coefficient terms share one backing slice (see
// delay.GateCoeffs) — repeat RunTable sweeps reuse the pooled scratch.
func GateLevel(c *circuit.Circuit, m *delay.Model) (*Problem, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	// A gate driving nothing has no x-dependent delay (its budget would
	// equal its intrinsic delay exactly, making eq. 6 singular); such
	// netlists are malformed for sizing purposes.
	fan, po := c.FanoutCounts()
	for gi := range c.Gates {
		if fan[gi]+po[gi] == 0 {
			return nil, fmt.Errorf("dag: gate %q drives neither a gate nor a PO", c.Gates[gi].Name)
		}
	}
	coeffs, err := m.GateCoeffs(c)
	if err != nil {
		return nil, err
	}
	n := c.NumGates()
	g := graph.New(n + c.NumPIs() + 1)
	sink := n + c.NumPIs()
	kind := make([]VertexKind, g.N())
	labels := make([]string, g.N())
	pis := make([]int, c.NumPIs())
	for i := 0; i < n; i++ {
		kind[i] = KindSizable
		labels[i] = c.Gates[i].Name
	}
	for i := 0; i < c.NumPIs(); i++ {
		v := n + i
		kind[v] = KindPI
		labels[v] = c.PIs[i]
		pis[i] = v
	}
	kind[sink] = KindSink
	labels[sink] = "$O"

	// Dedup (u, target) pairs with a stamp per source vertex: the edge
	// loops below visit one target at a time, so lastTarget[u] == the
	// target's marker means u→target was already added.  Two passes:
	// the first counts deduped degrees so the adjacency is reserved
	// exactly, the second inserts.
	sc := buildPool.Get().(*buildScratch)
	lastTarget, outDeg, inDeg := sc.sized(g.N())
	src := func(ref circuit.Ref) int32 {
		if ref.Kind == circuit.RefPI {
			return int32(n + ref.Index)
		}
		return int32(ref.Index)
	}
	edges := 0
	forEachEdge := func(add func(u int32, target int)) {
		for gi := range c.Gates {
			for _, in := range c.Gates[gi].Ins {
				if u := src(in); lastTarget[u] != int32(gi) {
					lastTarget[u] = int32(gi)
					add(u, gi)
				}
			}
		}
		for _, po := range c.POs {
			if u := src(po); lastTarget[u] != int32(sink) {
				lastTarget[u] = int32(sink)
				add(u, sink)
			}
		}
	}
	forEachEdge(func(u int32, target int) {
		outDeg[u]++
		inDeg[target]++
		edges++
	})
	g.Reserve(outDeg, inDeg, edges)
	for i := range lastTarget {
		lastTarget[i] = -1
	}
	forEachEdge(func(u int32, target int) { g.AddEdge(int(u), target) })
	buildPool.Put(sc)

	areaW := make([]float64, n)
	for gi := range c.Gates {
		areaW[gi] = cell.Get(c.Gates[gi].Kind).UnitArea
	}
	p := &Problem{
		Name:       c.Name,
		G:          g,
		Kind:       kind,
		NumSizable: n,
		Sink:       sink,
		PIs:        pis,
		Coeffs:     coeffs,
		AreaW:      areaW,
		MinSize:    m.Tech.MinSize,
		MaxSize:    m.Tech.MaxSize,
		Labels:     labels,
	}
	if p.topo, err = g.TopoOrder(); err != nil {
		return nil, fmt.Errorf("dag: %w", err)
	}
	p.csr = delay.NewCSR(p.Coeffs)
	return p, nil
}

// Topo returns the cached topological order of G.
func (p *Problem) Topo() []int { return p.topo }

// CSR returns the flattened coupling structure shared by every solver
// operating on the problem (delay evaluation, the W-phase SMP, the
// D-phase sensitivity solves, TILOS's incremental retiming).  It is
// built once at construction and read-only thereafter, so concurrent
// optimizer runs over one Problem remain race-free.
func (p *Problem) CSR() *delay.CSR { return p.csr }

// InitialSizes returns the all-minimum size vector.
func (p *Problem) InitialSizes() []float64 {
	x := make([]float64, p.NumSizable)
	for i := range x {
		x[i] = p.MinSize
	}
	return x
}

// Delays returns the per-vertex delay vector over all of G's vertices
// (zero for PI/sink vertices).
func (p *Problem) Delays(x []float64) []float64 {
	return p.DelaysInto(make([]float64, p.G.N()), x)
}

// DelaysInto fills d (length G.N()) with the per-vertex delays at sizes
// x and returns it — the allocation-free variant for iteration loops.
// A longer d (the augmented graph's) gets zeros past G.N() as well.
func (p *Problem) DelaysInto(d, x []float64) []float64 {
	p.csr.DelaysInto(d, x)
	for i := p.NumSizable; i < len(d); i++ {
		d[i] = 0
	}
	return d
}

// Area returns Σ w_i·x_i.
func (p *Problem) Area(x []float64) float64 {
	var a float64
	for i := 0; i < p.NumSizable; i++ {
		a += p.AreaW[i] * x[i]
	}
	return a
}

// MinAreaValue returns the area of the all-minimum solution.
func (p *Problem) MinAreaValue() float64 {
	var a float64
	for i := 0; i < p.NumSizable; i++ {
		a += p.AreaW[i] * p.MinSize
	}
	return a
}

// ApplyToCircuit writes a gate-level size vector back into the circuit.
func (p *Problem) ApplyToCircuit(c *circuit.Circuit, x []float64) error {
	if p.NumSizable != c.NumGates() {
		return fmt.Errorf("dag: %d sizable vertices but %d gates", p.NumSizable, c.NumGates())
	}
	c.SetSizes(x[:p.NumSizable])
	return nil
}

// Validate checks invariants: DAG-ness, kinds, coefficient sanity.
func (p *Problem) Validate() error {
	if !p.G.IsDAG() {
		return fmt.Errorf("dag: graph has a cycle")
	}
	if len(p.Coeffs) != p.NumSizable || len(p.AreaW) != p.NumSizable {
		return fmt.Errorf("dag: coefficient/area arrays mismatch NumSizable")
	}
	for i := range p.Coeffs {
		if err := p.Coeffs[i].Validate(); err != nil {
			return fmt.Errorf("dag: vertex %d (%s): %w", i, p.Labels[i], err)
		}
		for _, t := range p.Coeffs[i].Terms {
			if t.J < 0 || t.J >= p.NumSizable {
				return fmt.Errorf("dag: vertex %d couples to non-sizable %d", i, t.J)
			}
		}
	}
	for i := 0; i < p.NumSizable; i++ {
		if p.Kind[i] != KindSizable {
			return fmt.Errorf("dag: vertex %d should be sizable", i)
		}
	}
	if p.Kind[p.Sink] != KindSink {
		return fmt.Errorf("dag: sink kind wrong")
	}
	return nil
}

// Augmented is the D-phase graph: every sizable vertex i gains a dummy
// vertex Dmy(i) placed on its output; all former fanout edges of i are
// re-rooted at Dmy(i) (paper Figure 5).
type Augmented struct {
	Base *Problem
	G    *graph.Digraph
	Kind []VertexKind
	// DmyOf[i] is the dummy vertex of sizable vertex i.
	DmyOf []int
	// SelfEdge[i] is the edge id of i→Dmy(i).
	SelfEdge []int
}

// Augment constructs the dummy-augmented graph.  The augmented
// adjacency is reserved exactly (the degree of every vertex is known
// from the base graph), so construction is a handful of allocations
// instead of per-edge slice growth — Augment was the dominant
// allocator of a problem build before.
func (p *Problem) Augment() *Augmented {
	n := p.G.N()
	g := graph.New(n + p.NumSizable)
	kind := make([]VertexKind, g.N())
	copy(kind, p.Kind)
	dmy := make([]int, p.NumSizable)
	self := make([]int, p.NumSizable)
	for i := 0; i < p.NumSizable; i++ {
		dmy[i] = n + i
		kind[n+i] = KindDummy
	}
	// Exact augmented degrees: sizable i keeps in-degree plus the new
	// self edge out; its former out-edges move to Dmy(i).
	outDeg := make([]int32, g.N())
	inDeg := make([]int32, g.N())
	for i := 0; i < p.NumSizable; i++ {
		outDeg[i] = 1 // i → Dmy(i)
		inDeg[dmy[i]] = 1
		outDeg[dmy[i]] = int32(p.G.OutDegree(i))
	}
	for v := p.NumSizable; v < n; v++ {
		outDeg[v] = int32(p.G.OutDegree(v))
	}
	for v := 0; v < n; v++ {
		inDeg[v] += int32(p.G.InDegree(v))
	}
	g.Reserve(outDeg, inDeg, p.NumSizable+p.G.M())
	for i := 0; i < p.NumSizable; i++ {
		self[i] = g.AddEdge(i, dmy[i])
	}
	for _, e := range p.G.Edges() {
		from := e.From
		if from < p.NumSizable {
			from = dmy[from] // re-root at the dummy
		}
		g.AddEdge(from, e.To)
	}
	return &Augmented{Base: p, G: g, Kind: kind, DmyOf: dmy, SelfEdge: self}
}

// Delays returns the augmented-graph delay vector (dummies have zero
// delay).
func (a *Augmented) Delays(x []float64) []float64 {
	return a.DelaysInto(make([]float64, a.G.N()), x)
}

// DelaysInto fills d (length G.N()) with the augmented-graph delays at
// sizes x and returns it — the allocation-free variant for iteration
// loops.
func (a *Augmented) DelaysInto(d, x []float64) []float64 {
	return a.Base.DelaysInto(d, x)
}
