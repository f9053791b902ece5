package minflo

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"minflo/internal/core"
	"minflo/internal/dag"
	"minflo/internal/lagrange"
	"minflo/internal/sta"
)

// TradeoffPoint is one point of an area–delay curve (Figure 7): the
// delay axis is T/Dmin, the area axes are normalized to the
// minimum-sized circuit's area.
type TradeoffPoint struct {
	Frac        float64 // T / Dmin
	TargetPS    float64 // absolute target (ps)
	TilosRatio  float64 // TILOS area / min area (0 when infeasible)
	MinfloRatio float64 // MINFLOTRANSIT area / min area (0 when infeasible)
	Feasible    bool
}

// Sweep produces the area–delay trade-off curves for the circuit at the
// given delay fractions (of Dmin), running both TILOS and
// MINFLOTRANSIT per point — the harness behind Figure 7.  Points are
// independent and run concurrently (the problem instance is read-only
// during optimization); results are deterministic regardless of
// scheduling: each point owns a private flow network, so no solver
// state is shared across goroutines.
func (s *Sizer) Sweep(c *Circuit, fracs []float64) ([]TradeoffPoint, error) {
	p, err := s.problem(c)
	if err != nil {
		return nil, err
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		return nil, err
	}
	dmin := tm.CP
	minArea := p.MinAreaValue()
	points := make([]TradeoffPoint, len(fracs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, f := range fracs {
		i, f := i, f
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			pt := TradeoffPoint{Frac: f, TargetPS: f * dmin}
			res, err := core.Size(p, pt.TargetPS, s.coreOptions())
			if err == nil {
				pt.Feasible = true
				pt.TilosRatio = res.TilosArea / minArea
				pt.MinfloRatio = res.Area / minArea
			}
			points[i] = pt
		}()
	}
	wg.Wait()
	return points, nil
}

// TableRow is one row of the Table 1 reproduction.
type TableRow struct {
	Circuit     string
	Gates       int
	DelaySpec   float64 // fraction of Dmin
	DminPS      float64
	TilosArea   float64
	MinfloArea  float64
	SavingsPct  float64
	TilosTime   time.Duration // the TILOS sizing, which is also MINFLOTRANSIT's seed
	MinfloExtra time.Duration // the rest of the MINFLOTRANSIT run (the paper's 2nd CPU column reports total; see EXPERIMENTS.md)
	Iterations  int
	AreaRatio   float64 // MINFLOTRANSIT area / minimum-size area
}

// RunTableRow sizes one benchmark at spec·Dmin with MINFLOTRANSIT and
// reports the Table 1 quantities; the TILOS columns come from the
// run's own TILOS seed.  An unreachable spec returns an error wrapping
// ErrInfeasible.
func (s *Sizer) RunTableRow(c *Circuit, spec float64) (*TableRow, error) {
	p, err := s.problem(c)
	if err != nil {
		return nil, err
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		return nil, err
	}
	target := spec * tm.CP

	// MINFLOTRANSIT's seed is the TILOS sizing from minimum sizes, so
	// one run yields both columns: TilosArea is bit-identical to a
	// standalone tilos.Size with the same bump.
	t0 := time.Now()
	res, err := core.Size(p, target, s.coreOptions())
	if err != nil {
		if errors.Is(err, core.ErrInfeasible) { // only the TILOS seed reports it
			return nil, fmt.Errorf("minflo: TILOS on %s at %.2f·Dmin: %w: %v", c.Name, spec, ErrInfeasible, err)
		}
		return nil, fmt.Errorf("minflo: MINFLOTRANSIT on %s at %.2f·Dmin: %w", c.Name, spec, err)
	}
	total := time.Since(t0)

	return &TableRow{
		Circuit:     c.Name,
		Gates:       c.NumGates(),
		DelaySpec:   spec,
		DminPS:      tm.CP,
		TilosArea:   res.TilosArea,
		MinfloArea:  res.Area,
		SavingsPct:  100 * (1 - res.Area/res.TilosArea),
		TilosTime:   res.TilosTime,
		MinfloExtra: total - res.TilosTime,
		Iterations:  res.Iterations,
		AreaRatio:   res.Area / p.MinAreaValue(),
	}, nil
}

// TableJob names one row of a multi-circuit table sweep: a circuit and
// its delay spec as a fraction of Dmin.
type TableJob struct {
	Circuit *Circuit
	Spec    float64
}

// RunTable runs one RunTableRow per job, with the jobs distributed
// across GOMAXPROCS workers the way Sweep parallelizes Figure 7 points
// (each job's problem instance is private, so rows are independent).
// rows[i] and errs[i] report job i: exactly one of them is non-nil.
// Note the per-row CPU-time columns are wall-clock and stretch under
// contention; use serial RunTableRow calls when timing fidelity
// matters more than throughput.
func (s *Sizer) RunTable(jobs []TableJob) (rows []*TableRow, errs []error) {
	rows = make([]*TableRow, len(jobs))
	errs = make([]error, len(jobs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.GOMAXPROCS(0))
	for i, job := range jobs {
		i, job := i, job
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			rows[i], errs[i] = s.RunTableRow(job.Circuit, job.Spec)
		}()
	}
	wg.Wait()
	return rows, errs
}

// DeviceSizing is the outcome of transistor-level optimization: one
// entry per transistor.
type DeviceSizing struct {
	Labels     []string
	Sizes      []float64
	Area       float64 // Σ x_i over devices (the paper's objective)
	CP         float64
	TilosArea  float64
	Iterations int
}

// MinflotransitTransistors runs true transistor sizing (paper §2.1):
// every device is an independent variable on the per-transistor DAG.
func (s *Sizer) MinflotransitTransistors(c *Circuit, T float64) (*DeviceSizing, error) {
	p, err := dag.TransistorLevel(c, s.model)
	if err != nil {
		return nil, err
	}
	r, err := core.Size(p, T, s.coreOptions())
	if err != nil {
		return nil, err
	}
	return &DeviceSizing{
		Labels:     p.Labels[:p.NumSizable],
		Sizes:      r.X,
		Area:       r.Area,
		CP:         r.CP,
		TilosArea:  r.TilosArea,
		Iterations: r.Iterations,
	}, nil
}

// TransistorMinDelay returns Dmin for the transistor-level DAG.
func (s *Sizer) TransistorMinDelay(c *Circuit) (float64, error) {
	p, err := dag.TransistorLevel(c, s.model)
	if err != nil {
		return 0, err
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		return 0, err
	}
	return tm.CP, nil
}

// WireParams re-exports the sizable-wire model (paper §2.1).
type WireParams = dag.WireParams

// DefaultWireParams returns a plausible global-wire model.
func DefaultWireParams() WireParams { return dag.DefaultWireParams() }

// WireSizing is the outcome of joint gate+wire sizing.
type WireSizing struct {
	GateSizes  []float64
	WireWidths []float64
	WireLabels []string
	Area       float64
	CP         float64
	TilosArea  float64
	Iterations int
}

// MinflotransitWithWires runs joint gate and wire sizing toward target
// T, modelling every gate→gate connection as a sizable wire.
func (s *Sizer) MinflotransitWithWires(c *Circuit, T float64, wp WireParams) (*WireSizing, error) {
	p, err := dag.GateLevelWithWires(c, s.model, wp)
	if err != nil {
		return nil, err
	}
	r, err := core.Size(p.Problem, T, s.coreOptions())
	if err != nil {
		return nil, err
	}
	return &WireSizing{
		GateSizes:  r.X[:p.NumGates],
		WireWidths: r.X[p.NumGates:],
		WireLabels: p.WireLabel,
		Area:       r.Area,
		CP:         r.CP,
		TilosArea:  r.TilosArea,
		Iterations: r.Iterations,
	}, nil
}

// WiredMinDelay returns Dmin for the gate+wire problem.
func (s *Sizer) WiredMinDelay(c *Circuit, wp WireParams) (float64, error) {
	p, err := dag.GateLevelWithWires(c, s.model, wp)
	if err != nil {
		return 0, err
	}
	tm, err := sta.Analyze(p.G, p.Delays(p.InitialSizes()))
	if err != nil {
		return 0, err
	}
	return tm.CP, nil
}

// LagrangianRelaxation sizes the circuit with the Chen–Chu–Wong style
// Lagrangian-relaxation optimizer (the paper's reference [8], its exact
// competitor) — useful for cross-checking MINFLOTRANSIT's solutions.
func (s *Sizer) LagrangianRelaxation(c *Circuit, T float64) (*Sizing, error) {
	p, err := s.problem(c)
	if err != nil {
		return nil, err
	}
	r, err := lagrange.Size(p, T, lagrange.Options{})
	if err != nil {
		if errors.Is(err, lagrange.ErrInfeasible) {
			return nil, fmt.Errorf("%w: %v", ErrInfeasible, err)
		}
		return nil, err
	}
	if err := p.ApplyToCircuit(c, r.X); err != nil {
		return nil, err
	}
	return &Sizing{
		Sizes:      r.X,
		Area:       r.Area,
		CP:         r.CP,
		MinArea:    p.MinAreaValue(),
		Iterations: r.Iters,
	}, nil
}

// TimingReport writes an STA report (critical path listing, slack
// histogram) for the circuit at its current sizes. target may be 0.
func (s *Sizer) TimingReport(w io.Writer, c *Circuit, target float64) error {
	p, err := s.problem(c)
	if err != nil {
		return err
	}
	d := p.Delays(c.Sizes())
	tm, err := sta.Analyze(p.G, d)
	if err != nil {
		return err
	}
	rep := sta.NewReport(p.G, d, tm, target)
	rep.Write(w, d, func(v int) string { return p.Labels[v] })
	return nil
}
