package anondyn

import (
	"errors"
	"fmt"
)

// AdversaryFactory names a parametric adversary constructor so sweeps
// can instantiate a fresh, independently seeded adversary per run.
// Factories for the built-in adversaries are resolved by name through
// ParseAdversaryFactory; the struct stays open so callers can sweep
// custom constructors too.
type AdversaryFactory struct {
	// Name labels the axis value in cell results and reports.
	Name string
	// New builds the adversary for one run of the given cell with the
	// run's seed, as a fresh value per call. The cell carries n and f,
	// so degree-parametric constructors can track the thresholds
	// (crashdeg, byzdeg) across the sweep. A Grid renews a product that
	// is an AdversaryReseeder instead of calling New again for the next
	// run of the same cell on the same worker, so such a product must
	// keep the renewal contract: New(c, s₁) after Reseed(s₂) renders the
	// runs New(c, s₂) renders. A product that ignores the run seed (a
	// fixed seed in the factory's spec) rewinds to its own seed on
	// Reseed.
	New func(c Cell, seed int64) Adversary
	// Check, when non-nil, rejects cells the adversary is undefined on
	// (fig1 needs n=3, isolate needs victim < n). Grid.Run reports the
	// error before any run starts.
	Check func(c Cell) error
}

// CompleteFactory is the trivial always-complete-graph factory — the
// default adversary axis of a Grid.
func CompleteFactory() AdversaryFactory {
	return AdversaryFactory{Name: "complete", New: func(Cell, int64) Adversary { return Complete() }}
}

// Variant is an optional extra sweep axis: a named Scenario override
// applied to every run of its cells, after the cell's base scenario is
// assembled and before Grid.Mutate runs. It is how one sweep compares
// protocol variants — quorum overrides, piggyback windows, algorithm
// swaps — on otherwise identical cells (experiments E2/E6/E7/E8).
type Variant struct {
	// Name labels the variant in cell results and reports.
	Name string
	// Apply adjusts one run's scenario; nil is a no-op.
	Apply func(s *Scenario)
}

// Cell is one point of a sweep grid: the cross product of the axes
// minus whatever Skip rejects.
type Cell struct {
	N         int
	F         int
	Eps       float64
	Algorithm Algo
	Adversary AdversaryFactory
	// Variant is the zero Variant unless the Grid declares a Variants
	// axis.
	Variant Variant
}

// Grid declares a scenario matrix: every combination of the axis
// values is one cell, and each cell is measured over SeedsPerCell
// independent seeded runs. Run executes the whole matrix on the batch
// harness and produces one aggregate row per cell.
//
// Unset axes default to a single neutral value (F=0, ε=1e-3, AlgoDAC,
// the complete-graph adversary); Ns is the only mandatory axis.
type Grid struct {
	// Ns are the network sizes (mandatory).
	Ns []int
	// Fs are the fault bounds (nil → {0}).
	Fs []int
	// Epss are the ε values (nil → {1e-3}).
	Epss []float64
	// Algorithms are the protocols (nil → {AlgoDAC}).
	Algorithms []Algo
	// Adversaries are the adversary constructors (nil → complete graph).
	Adversaries []AdversaryFactory
	// Variants are the scenario-override axis values (nil → one no-op
	// variant).
	Variants []Variant
	// SeedsPerCell is the Monte-Carlo width per cell (< 1 → 1).
	SeedsPerCell int
	// BaseSeed offsets the global seed sequence; run j of cell i uses
	// seed BaseSeed + i·SeedsPerCell + j.
	BaseSeed int64

	// MaxRounds caps each run (0 = engine default).
	MaxRounds int
	// AccountBandwidth tallies wire bytes per run.
	AccountBandwidth bool
	// Inputs generates each run's input vector (nil → RandomInputs).
	Inputs func(n int, seed int64) []float64
	// Skip, when non-nil, drops cells (e.g. inadmissible n/f pairs)
	// from the cross product.
	Skip func(c Cell) bool
	// Mutate, when non-nil, adjusts each run's assembled Scenario —
	// the hook for crash schedules, Byzantine strategies, overrides.
	// A hook may hand every run of a cell one shared Crashes map (a
	// spec's grid compiles each cell's crash plan once), so a hook that
	// edits Scenario.Crashes must copy the map first.
	Mutate func(s *Scenario, c Cell, seed int64)
}

// CellResult is one aggregate row of a sweep: the cell's coordinates
// plus the streaming BatchStats aggregate over its seeds.
type CellResult struct {
	N         int     `json:"n"`
	F         int     `json:"f"`
	Eps       float64 `json:"eps"`
	Algorithm string  `json:"algorithm"`
	Adversary string  `json:"adversary"`
	Variant   string  `json:"variant,omitempty"`
	BatchReport
}

// Cells enumerates the matrix in axis order (Ns outermost, Variants
// innermost), applying defaults and the Skip filter.
func (g Grid) Cells() []Cell {
	fs := g.Fs
	if len(fs) == 0 {
		fs = []int{0}
	}
	epss := g.Epss
	if len(epss) == 0 {
		epss = []float64{1e-3}
	}
	algos := g.Algorithms
	if len(algos) == 0 {
		algos = []Algo{AlgoDAC}
	}
	advs := g.Adversaries
	if len(advs) == 0 {
		advs = []AdversaryFactory{CompleteFactory()}
	}
	variants := g.Variants
	if len(variants) == 0 {
		variants = []Variant{{}}
	}
	var cells []Cell
	for _, n := range g.Ns {
		for _, f := range fs {
			for _, eps := range epss {
				for _, algo := range algos {
					for _, adv := range advs {
						for _, v := range variants {
							c := Cell{N: n, F: f, Eps: eps, Algorithm: algo, Adversary: adv, Variant: v}
							if g.Skip != nil && g.Skip(c) {
								continue
							}
							cells = append(cells, c)
						}
					}
				}
			}
		}
	}
	return cells
}

// scenario assembles one run of one cell into s, around the cell's
// adversary for the run: base fields from the cell, then the variant
// override, then the Mutate hook (so experiment hooks see the
// variant-adjusted scenario). The hooks take s's address, so s lives in
// the caller's longer-lived state rather than escaping per run.
func (g Grid) scenario(s *Scenario, c Cell, seed int64, adv Adversary) {
	inputs := g.Inputs
	if inputs == nil {
		inputs = RandomInputs
	}
	*s = Scenario{
		N: c.N, F: c.F, Eps: c.Eps,
		Algorithm:        c.Algorithm,
		Inputs:           inputs(c.N, seed),
		Adversary:        adv,
		Seed:             seed,
		MaxRounds:        g.MaxRounds,
		AccountBandwidth: g.AccountBandwidth,
	}
	if c.Variant.Apply != nil {
		c.Variant.Apply(s)
	}
	if g.Mutate != nil {
		g.Mutate(s, c, seed)
	}
}

// RunEach executes the sweep and delivers every run's Result — cells
// in Cells() order, seeds ascending within a cell — from a single
// goroutine, alongside the cell it belongs to and the run's global
// batch index. It is the per-run form of Run, for callers that need
// more than the BatchStats aggregate (per-run trackers, custom
// tables); all cells' runs are flattened into one batch so the pool
// stays saturated across cell boundaries.
func (g Grid) RunEach(opts BatchOptions, each func(c Cell, cell, run int, seed int64, res *Result) error) error {
	return g.RunSlice(0, g.Runs(), opts, each)
}

// Runs returns the total number of runs the sweep comprises —
// len(Cells()) × max(SeedsPerCell, 1) — the index space RunEach
// flattens the matrix into (cells in Cells() order, seeds ascending
// within a cell).
func (g Grid) Runs() int {
	per := g.SeedsPerCell
	if per < 1 {
		per = 1
	}
	return len(g.Cells()) * per
}

// RunSlice executes the contiguous global run-index range [lo, hi) of
// the flattened sweep — the shard form of RunEach, used by distributed
// workers to execute one slice of a matrix. Deliveries arrive in run
// order from a single goroutine; run j of the slice is global run
// lo+j, i.e. seed BaseSeed+lo+j of cell (lo+j)/SeedsPerCell. Every
// cell of the grid is checked before any run starts, so a slice fails
// on exactly the sweeps the full run would reject.
func (g Grid) RunSlice(lo, hi int, opts BatchOptions, each func(c Cell, cell, run int, seed int64, res *Result) error) error {
	cells := g.Cells()
	if len(cells) == 0 {
		return errors.New("anondyn: empty sweep grid (set Grid.Ns)")
	}
	for _, c := range cells {
		if c.Adversary.Check != nil {
			if err := c.Adversary.Check(c); err != nil {
				return fmt.Errorf("anondyn: sweep cell n=%d f=%d adversary %s: %w",
					c.N, c.F, c.Adversary.Name, err)
			}
		}
	}
	per := g.SeedsPerCell
	if per < 1 {
		per = 1
	}
	if lo < 0 || hi > len(cells)*per || lo > hi {
		return fmt.Errorf("anondyn: sweep slice [%d,%d) out of range for %d runs", lo, hi, len(cells)*per)
	}
	seeds := make([]int64, hi-lo)
	for j := range seeds {
		seeds[j] = g.BaseSeed + int64(lo+j)
	}
	err := runPooled(seeds,
		func(w *poolWorker, j int) Scenario {
			i := (lo + j) / per
			g.scenario(&w.scenario, cells[i], seeds[j], w.adversary(cells[i], i, seeds[j]))
			return w.scenario
		},
		func(index int, seed int64, res *Result) error {
			run := lo + index
			return each(cells[run/per], run/per, run, seed, res)
		},
		opts)
	if err != nil {
		return fmt.Errorf("anondyn: sweep: %w", err)
	}
	return nil
}

// adversary returns the adversary for a run of cell i with seed: the
// one this worker built for the cell last, renewed through Reseed, when
// it is a Reseeder, and a fresh product of the cell's factory otherwise.
// The factory's renewal contract (AdversaryFactory.New) makes the two
// render the same run, so a sweep builds and seeds each randomized
// adversary once per worker and cell instead of once per run. The cache
// holds the factory's product, not what Variant or Mutate make of it,
// so a hook that replaces the adversary still does so on every run.
func (w *poolWorker) adversary(c Cell, i int, seed int64) Adversary {
	if r, ok := w.adv.(AdversaryReseeder); ok && w.cell == i {
		r.Reseed(seed)
		return w.adv
	}
	w.adv, w.cell = c.Adversary.New(c, seed), i
	return w.adv
}

// SeriesPerCell runs the first seed of every cell once with a
// RangeSeries attached and returns each cell's per-round convergence
// curve (range after each round), in Cells() order — the data behind
// the HTML report's per-cell charts. It is a separate sequential pass
// because a RangeSeries records one run and is not safe for concurrent
// use, while the sweep's pooled runs share their sinks. One extra run
// per cell is cheap next to SeedsPerCell runs. Any Series a Mutate hook
// installs is replaced for this pass.
func (g Grid) SeriesPerCell() ([][]float64, error) {
	cells := g.Cells()
	per := g.SeedsPerCell
	if per < 1 {
		per = 1
	}
	out := make([][]float64, len(cells))
	for i, c := range cells {
		seed := g.BaseSeed + int64(i*per)
		var s Scenario
		g.scenario(&s, c, seed, c.Adversary.New(c, seed))
		series := NewRangeSeries()
		s.Series = series
		if _, err := s.Run(); err != nil {
			return nil, fmt.Errorf("anondyn: sweep series cell %d: %w", i, err)
		}
		out[i] = series.Series()
	}
	return out, nil
}

// Run executes the sweep: every cell's runs stream into the cell's
// BatchStats and the returned rows are in Cells() order, bit-identical
// across worker counts.
func (g Grid) Run(opts BatchOptions) ([]CellResult, error) {
	cells := g.Cells()
	stats := make([]*BatchStats, len(cells))
	for i, c := range cells {
		stats[i] = &BatchStats{Eps: c.Eps}
	}
	err := g.RunEach(opts, func(_ Cell, cell, run int, seed int64, res *Result) error {
		return stats[cell].Consume(run, seed, res)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]CellResult, len(cells))
	for i, c := range cells {
		rows[i] = CellResult{
			N: c.N, F: c.F, Eps: c.Eps,
			Algorithm:   c.Algorithm.String(),
			Adversary:   c.Adversary.Name,
			Variant:     c.Variant.Name,
			BatchReport: stats[i].Report(),
		}
	}
	return rows, nil
}
