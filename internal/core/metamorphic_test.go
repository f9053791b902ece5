// Metamorphic tests for the sizing loop: transformations of the input
// that must not change the optimizer's answer at all.  Unlike the
// equivalence-vs-reference gates (which compare two implementations on
// one input), these catch order- and scale-dependence bugs — a result
// that silently depends on gate input order, edge insertion order or
// the absolute magnitude of the load units would pass every
// twin-implementation test and still be irreproducible in practice.
//
// Two families:
//
//   - Load scaling: multiplying every capacitive load by a power of
//     two scales every delay by exactly that factor in IEEE floats, so
//     running with the delay target scaled identically — and the
//     integerization scales adjusted inversely, which leaves every
//     integerized flow cost and supply bit-identical — must reproduce
//     the exact same sizes, areas and iteration trajectory.
//
//   - Input permutation: reversing the input pin order of every gate
//     permutes construction order (edge insertion, coupling-term
//     order) without changing the problem, so sizes, areas and
//     iteration counts must be bit-identical.
package core

import (
	"testing"

	"minflo/internal/circuit"
	"minflo/internal/dag"
	"minflo/internal/delay"
	"minflo/internal/gen"
	"minflo/internal/sta"
	"minflo/internal/tech"
)

// metamorphicOptions sets the integerization scales of one run.
func metamorphicOptions(costScale, supplyScale float64) Options {
	return Options{CostScale: costScale, SupplyScale: supplyScale}
}

// sizeProblem runs the optimizer at spec·Dmin and returns the result.
func sizeProblem(t *testing.T, p *dag.Problem, spec float64, opt Options) (*Result, float64) {
	t.Helper()
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Size(p, spec*tm.CP, opt)
	if err != nil {
		t.Fatal(err)
	}
	return res, tm.CP
}

func diffOutcome(t *testing.T, tag string, a, b *Result) {
	t.Helper()
	if a.Iterations != b.Iterations {
		t.Fatalf("%s: iterations %d != %d", tag, b.Iterations, a.Iterations)
	}
	if a.Area != b.Area {
		t.Fatalf("%s: area %v != %v (diff %g)", tag, b.Area, a.Area, b.Area-a.Area)
	}
	if a.TilosArea != b.TilosArea {
		t.Fatalf("%s: TILOS area %v != %v", tag, b.TilosArea, a.TilosArea)
	}
	if len(a.X) != len(b.X) {
		t.Fatalf("%s: size vectors %d vs %d entries", tag, len(b.X), len(a.X))
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("%s: size[%d] %v != %v", tag, i, b.X[i], a.X[i])
		}
	}
	for i := range a.Stats {
		if a.Stats[i].Objective != b.Stats[i].Objective {
			t.Fatalf("%s: iteration %d objective %v != %v", tag, i+1,
				b.Stats[i].Objective, a.Stats[i].Objective)
		}
	}
}

// scaleTech multiplies every capacitive load parameter by k (drive
// resistances and size bounds untouched), scaling every gate delay by
// exactly k.
func scaleTech(p tech.Params, k float64) tech.Params {
	p.CGate *= k
	p.CDiff *= k
	p.CWire *= k
	return p
}

// TestMetamorphicLoadScaling sizes the same circuit under the base
// load model and under all loads scaled by 4 (a power of two, so the
// scaling is exact in floating point), with the delay target scaled
// by 4 and the integerization scales adjusted inversely — CostScale/4
// keeps every integerized arc cost bit-identical (⌊4w·S/4⌋ = ⌊w·S⌋),
// SupplyScale·4 does the same for the supplies.  Sizes, areas and the
// whole iteration trajectory must be bit-identical; the critical path
// must scale by exactly 4.
func TestMetamorphicLoadScaling(t *testing.T) {
	const k = 4.0
	base := tech.Default013()
	circuits := map[string]func() *dag.Problem{
		"c432": func() *dag.Problem {
			p, err := dag.GateLevel(gen.C432(), delay.NewModel(base))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"c432/scaled": func() *dag.Problem {
			p, err := dag.GateLevel(gen.C432(), delay.NewModel(scaleTech(base, k)))
			if err != nil {
				t.Fatal(err)
			}
			return p
		},
		"adder16+wires": func() *dag.Problem {
			wp, err := dag.GateLevelWithWires(gen.RippleAdder(16, gen.FABuffered),
				delay.NewModel(base), dag.DefaultWireParams())
			if err != nil {
				t.Fatal(err)
			}
			return wp.Problem
		},
		"adder16+wires/scaled": func() *dag.Problem {
			w := dag.DefaultWireParams()
			w.CUnit *= k
			w.CFringe *= k
			wp, err := dag.GateLevelWithWires(gen.RippleAdder(16, gen.FABuffered),
				delay.NewModel(scaleTech(base, k)), w)
			if err != nil {
				t.Fatal(err)
			}
			return wp.Problem
		},
	}
	for _, name := range []string{"c432", "adder16+wires"} {
		name := name
		t.Run(name, func(t *testing.T) {
			resA, cpA := sizeProblem(t, circuits[name](), 0.6, metamorphicOptions(1e6, 1e4))
			resB, cpB := sizeProblem(t, circuits[name+"/scaled"](), 0.6, metamorphicOptions(1e6/k, 1e4*k))
			if cpB != k*cpA {
				t.Fatalf("minimum-size CP did not scale exactly: %v vs %v·%v", cpB, k, cpA)
			}
			if resB.CP != k*resA.CP {
				t.Fatalf("final CP did not scale exactly: %v vs %v·%v", resB.CP, k, resA.CP)
			}
			diffOutcome(t, name, resA, resB)
		})
	}
}

// permuteInputs returns a clone of the circuit with every gate's input
// pin order reversed — same netlist, different construction order.
func permuteInputs(c *circuit.Circuit) *circuit.Circuit {
	p := c.Clone()
	for gi := range p.Gates {
		ins := p.Gates[gi].Ins
		for i, j := 0, len(ins)-1; i < j; i, j = i+1, j-1 {
			ins[i], ins[j] = ins[j], ins[i]
		}
	}
	return p
}

// TestMetamorphicInputPermutation sizes a circuit and its
// input-permuted twin: gate input order drives edge insertion order,
// coupling-term order and flow-arc numbering, none of which may leak
// into the result.  Areas, sizes and iteration counts must be
// bit-identical.
func TestMetamorphicInputPermutation(t *testing.T) {
	m := delay.NewModel(tech.Default013())
	for _, tc := range []struct {
		name string
		ckt  *circuit.Circuit
	}{
		{"adder16", gen.RippleAdder(16, gen.FABuffered)},
		{"c432", gen.C432()},
		{"random", gen.RandomLogic(12, 160, 7)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			build := func(c *circuit.Circuit) *dag.Problem {
				p, err := dag.GateLevel(c, m)
				if err != nil {
					t.Fatal(err)
				}
				return p
			}
			resA, _ := sizeProblem(t, build(tc.ckt), 0.55, metamorphicOptions(0, 0))
			resB, _ := sizeProblem(t, build(permuteInputs(tc.ckt)), 0.55, metamorphicOptions(0, 0))
			diffOutcome(t, tc.name, resA, resB)
		})
	}
}
