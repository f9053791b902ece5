package minflo

import (
	"hash/fnv"
	"math"
	"testing"

	"minflo/internal/core"
	"minflo/internal/gen"
	"minflo/internal/sta"
)

// TestAnswerPin fixes sizing answers bit for bit: the Table-1 area and
// D/W iteration count of four small rows at the paper spec, and the
// full size vector of a wide tree and a mesh at 0.9·Dmin.  The flow
// layer may change how it reaches an optimal flow (search order,
// phases, engine internals), but the D-phase duals it hands to dcs —
// and with them every answer — must stay the recorded ones.  A change
// that moves these on purpose re-records them and says why.
func TestAnswerPin(t *testing.T) {
	sz, err := NewSizer(nil)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name  string
		area  uint64 // math.Float64bits of MinfloArea
		iters int
	}{
		{"adder32", 0x40a99b4dba4d2a53, 15},
		{"c432", 0x40a6f40103b94b34, 16},
		{"c499", 0x40a3f90a073a19a0, 10},
		{"c880", 0x40a64d7310d498dc, 22},
	}
	for _, r := range rows {
		ckt, err := CircuitByName(r.name)
		if err != nil {
			t.Fatal(err)
		}
		row, err := sz.RunTableRow(ckt, PaperSpec(r.name))
		if err != nil {
			t.Fatalf("%s: %v", r.name, err)
		}
		got := math.Float64bits(row.MinfloArea)
		if got != r.area || row.Iterations != r.iters {
			t.Errorf("%s: area %v (%#x) in %d iterations, pinned %v (%#x) in %d",
				r.name, row.MinfloArea, got, row.Iterations, math.Float64frombits(r.area), r.area, r.iters)
		}
	}

	sized := []struct {
		name  string
		ckt   func() *Circuit
		xhash uint64 // FNV-1a over the Float64bits of Result.X
		iters int
	}{
		{"tree1024", func() *Circuit { return gen.BalancedTree(1024) }, 0xa6151aa2f2b09441, 21},
		{"mesh20x20", func() *Circuit { return gen.Mesh(20, 20) }, 0x5ce4a60f3c67a600, 7},
	}
	for _, c := range sized {
		p, err := sz.problem(c.ckt())
		if err != nil {
			t.Fatal(err)
		}
		tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
		if err != nil {
			t.Fatal(err)
		}
		res, err := core.Size(p, 0.9*tm.CP, sz.coreOptions())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		h := fnv.New64a()
		var buf [8]byte
		for _, x := range res.X {
			bits := math.Float64bits(x)
			for i := range buf {
				buf[i] = byte(bits >> (8 * i))
			}
			h.Write(buf[:])
		}
		got := h.Sum64()
		if got != c.xhash || res.Iterations != c.iters {
			t.Errorf("%s: size hash %#x in %d iterations, pinned %#x in %d",
				c.name, got, res.Iterations, c.xhash, c.iters)
		}
	}
}
