package minflo

import (
	"bytes"
	"errors"
	"math"
	"strings"
	"testing"

	"minflo/internal/sta"
	"minflo/internal/tilos"
)

func TestQuickstartFlow(t *testing.T) {
	ckt := C17()
	sz, err := NewSizer(nil)
	if err != nil {
		t.Fatal(err)
	}
	dmin, err := sz.MinDelay(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if dmin <= 0 {
		t.Fatal("non-positive Dmin")
	}
	res, err := sz.Minflotransit(ckt, 0.5*dmin)
	if err != nil {
		t.Fatal(err)
	}
	if res.CP > 0.5*dmin*(1+1e-9) {
		t.Fatalf("CP %g misses target", res.CP)
	}
	if res.Area > res.TilosArea {
		t.Fatal("worse than TILOS")
	}
	// Sizes must have been written back to the circuit.
	cpNow, err := sz.Delay(ckt)
	if err != nil {
		t.Fatal(err)
	}
	if cpNow != res.CP {
		t.Fatalf("circuit sizes not applied: Delay()=%g, result CP=%g", cpNow, res.CP)
	}
}

func TestTILOSPublicAPI(t *testing.T) {
	ckt := InverterChain(10)
	sz, _ := NewSizer(nil)
	dmin, _ := sz.MinDelay(ckt)
	res, err := sz.TILOS(ckt, 0.7*dmin)
	if err != nil {
		t.Fatal(err)
	}
	if res.CP > 0.7*dmin {
		t.Fatal("TILOS missed target")
	}
	if res.MinArea <= 0 || res.Area < res.MinArea {
		t.Fatalf("area accounting wrong: %g vs min %g", res.Area, res.MinArea)
	}
}

func TestInfeasibleSurfacesTypedError(t *testing.T) {
	ckt := InverterChain(10)
	sz, _ := NewSizer(nil)
	dmin, _ := sz.MinDelay(ckt)
	_, err := sz.Minflotransit(ckt, dmin/1000)
	if err == nil || !strings.Contains(err.Error(), "unreachable") {
		t.Fatalf("want unreachable-target error, got %v", err)
	}
}

func TestSweepShape(t *testing.T) {
	ckt := C17()
	sz, _ := NewSizer(nil)
	pts, err := sz.Sweep(ckt, []float64{1.0, 0.8, 0.6, 0.45})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 4 {
		t.Fatalf("%d points", len(pts))
	}
	for i, pt := range pts {
		if !pt.Feasible {
			continue
		}
		if pt.MinfloRatio > pt.TilosRatio*(1+1e-9) {
			t.Errorf("point %d: MINFLO ratio %g above TILOS %g", i, pt.MinfloRatio, pt.TilosRatio)
		}
		if pt.MinfloRatio < 1-1e-9 {
			t.Errorf("point %d: area ratio %g below 1", i, pt.MinfloRatio)
		}
	}
	// Monotone shape: tighter specs cannot take less area.
	for i := 1; i < len(pts); i++ {
		if pts[i].Feasible && pts[i-1].Feasible &&
			pts[i].MinfloRatio < pts[i-1].MinfloRatio-1e-6 {
			t.Errorf("area-delay curve not monotone at point %d", i)
		}
	}
}

func TestRunTableRow(t *testing.T) {
	ckt := RippleAdder(8, FAXor)
	sz, _ := NewSizer(nil)
	row, err := sz.RunTableRow(ckt, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	if row.Gates != ckt.NumGates() || row.Circuit != ckt.Name {
		t.Fatalf("row identity wrong: %+v", row)
	}
	if row.SavingsPct < -1e-6 {
		t.Fatalf("negative savings %g", row.SavingsPct)
	}
	if row.AreaRatio < 1 {
		t.Fatalf("area ratio %g below 1", row.AreaRatio)
	}
}

// A table row's TILOS columns come from MINFLOTRANSIT's own seed; they
// must equal a standalone TILOS run bit for bit.
func TestRunTableRowTilosMatchesStandalone(t *testing.T) {
	sz, _ := NewSizer(nil)
	for _, name := range []string{"adder32", "c432", "c499", "c880"} {
		ckt, err := CircuitByName(name)
		if err != nil {
			t.Fatal(err)
		}
		spec := PaperSpec(name)
		row, err := sz.RunTableRow(ckt, spec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		p, err := sz.problem(ckt)
		if err != nil {
			t.Fatal(err)
		}
		tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
		if err != nil {
			t.Fatal(err)
		}
		tr, err := tilos.Size(p, spec*tm.CP, nil, tilos.Options{Bump: sz.cfg.TilosBump})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if math.Float64bits(row.TilosArea) != math.Float64bits(tr.Area) {
			t.Errorf("%s: row TILOS area %v, standalone tilos.Size %v", name, row.TilosArea, tr.Area)
		}
		if row.TilosTime <= 0 || row.MinfloExtra < 0 {
			t.Errorf("%s: TilosTime %v, MinfloExtra %v", name, row.TilosTime, row.MinfloExtra)
		}
	}
}

// An unreachable spec is reported as the public ErrInfeasible, naming
// TILOS (the seed is what fails), on both table paths.
func TestRunTableInfeasibleSpec(t *testing.T) {
	sz, _ := NewSizer(nil)
	ckt := C17()
	_, err := sz.RunTableRow(ckt, 0.05)
	if !errors.Is(err, ErrInfeasible) || !strings.Contains(err.Error(), "TILOS on c17") {
		t.Fatalf("RunTableRow: %v, want ErrInfeasible from TILOS on c17", err)
	}
	rows, errs := sz.RunTable([]TableJob{{Circuit: ckt, Spec: 0.05}, {Circuit: C17(), Spec: 0.6}})
	if rows[0] != nil || !errors.Is(errs[0], ErrInfeasible) {
		t.Fatalf("RunTable infeasible job: row %v, err %v", rows[0], errs[0])
	}
	if rows[1] == nil || errs[1] != nil {
		t.Fatalf("RunTable feasible job: row %v, err %v", rows[1], errs[1])
	}
}

func TestTransistorLevelPublicAPI(t *testing.T) {
	ckt := C17()
	sz, _ := NewSizer(nil)
	dmin, err := sz.TransistorMinDelay(ckt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sz.MinflotransitTransistors(ckt, 0.6*dmin)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sizes) != 24 || len(res.Labels) != 24 {
		t.Fatalf("c17 has 24 devices, got %d", len(res.Sizes))
	}
	if res.Area > res.TilosArea {
		t.Fatal("transistor MINFLO worse than TILOS")
	}
}

func TestWireSizingPublicAPI(t *testing.T) {
	ckt := C17()
	sz, _ := NewSizer(nil)
	wp := DefaultWireParams()
	dmin, err := sz.WiredMinDelay(ckt, wp)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sz.MinflotransitWithWires(ckt, 0.6*dmin, wp)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.GateSizes) != 6 {
		t.Fatalf("gate sizes %d", len(res.GateSizes))
	}
	if len(res.WireWidths) != len(res.WireLabels) {
		t.Fatal("wire arrays inconsistent")
	}
	if res.Area > res.TilosArea {
		t.Fatal("wired MINFLO worse than TILOS")
	}
	// At least one wire should have been widened above minimum when the
	// spec is tight... not guaranteed; only check bounds.
	for _, w := range res.WireWidths {
		if w < 1-1e-9 {
			t.Fatalf("wire width %g below minimum", w)
		}
	}
}

func TestBenchIO(t *testing.T) {
	ckt := C17()
	var buf bytes.Buffer
	if err := WriteBench(&buf, ckt); err != nil {
		t.Fatal(err)
	}
	back, err := ParseBench(&buf, "c17back")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumGates() != ckt.NumGates() {
		t.Fatal("round trip lost gates")
	}
}

func TestCircuitBuilderAPI(t *testing.T) {
	c := NewCircuit("mine")
	a := c.AddPI("a")
	b := c.AddPI("b")
	g := c.AddGate("g", Nand2, a, b)
	c.MarkPO(g)
	sz, _ := NewSizer(&Config{Tech: Default013(), TilosBump: 1.2, Window: 0.15})
	dmin, err := sz.MinDelay(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sz.Minflotransit(c, 0.8*dmin); err != nil {
		t.Fatal(err)
	}
}

func TestNewSizerRejectsBadTech(t *testing.T) {
	bad := Default013()
	bad.RUnit = -1
	if _, err := NewSizer(&Config{Tech: bad}); err == nil {
		t.Fatal("invalid tech accepted")
	}
}

// TestNewSizerRejectsBadNumbers: a negative (or NaN) number, or a
// TilosBump at or below 1, fails in NewSizer instead of being replaced
// by a default or quietly cutting the D/W loop short.  Zero selects
// the default and is accepted.
func TestNewSizerRejectsBadNumbers(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"Window<0", Config{Window: -0.1}},
		{"Window NaN", Config{Window: math.NaN()}},
		{"MaxIters<0", Config{MaxIters: -1}},
		{"CostScale<0", Config{CostScale: -1e6}},
		{"POLoad<0", Config{POLoad: -8}},
		{"POLoad NaN", Config{POLoad: math.NaN()}},
		{"TilosBump=1", Config{TilosBump: 1}},
		{"TilosBump<1", Config{TilosBump: 0.9}},
		{"TilosBump<0", Config{TilosBump: -1.1}},
	} {
		if _, err := NewSizer(&tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if _, err := NewSizer(&Config{}); err != nil {
		t.Fatalf("zero Config rejected: %v", err)
	}
}
