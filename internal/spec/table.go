package spec

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"anondyn"
	"anondyn/internal/analysis"
)

// Load parses a spec file and compiles it to a runnable grid, with an
// optional seeds-per-cell override (> 0; the CLI -seeds flag and the
// CI one-seed smoke) — the shared front half of every CLI spec run.
func Load(path string, seedsOverride int) (*Sweep, anondyn.Grid, error) {
	sw, err := ParseFile(path)
	if err != nil {
		return nil, anondyn.Grid{}, err
	}
	grid, err := compile(sw, seedsOverride)
	if err != nil {
		return nil, anondyn.Grid{}, fmt.Errorf("%s: %w", path, err)
	}
	return sw, grid, nil
}

// Compile parses a sweep from raw bytes and compiles it with an
// optional seeds-per-cell override — the wire-side counterpart of
// Load. Both ends of the shard protocol derive their grid through this
// one path, so a coordinator and its workers agree on the flattened
// run space (cells × seeds and their order) by construction.
func Compile(data []byte, seedsOverride int) (*Sweep, anondyn.Grid, error) {
	sw, err := Parse(data)
	if err != nil {
		return nil, anondyn.Grid{}, err
	}
	grid, err := compile(sw, seedsOverride)
	if err != nil {
		return nil, anondyn.Grid{}, err
	}
	return sw, grid, nil
}

// compile applies the seeds override and builds the grid.
func compile(sw *Sweep, seedsOverride int) (anondyn.Grid, error) {
	if seedsOverride > 0 {
		sw.SeedsPerCell = seedsOverride
	}
	return sw.Grid()
}

// RunTitle formats the standard sweep heading the CLIs print above
// the row table; path names unnamed sweeps.
func (s *Sweep) RunTitle(path string, cells int) string {
	name := s.Name
	if name == "" {
		name = filepath.Base(path)
	}
	per := s.SeedsPerCell
	if per < 1 {
		per = 1
	}
	return fmt.Sprintf("%s: %d cells × %d seeds", name, cells, per)
}

// Validate dry-runs one spec file — parse, validate, compile: every
// check a run makes before its first scenario — and prints the CLIs'
// "<path>: ok (<title>)" line to w. Errors cite the offending key.
func Validate(w io.Writer, path string) error {
	sw, grid, err := Load(path, 0)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s: ok (%s)\n", path, sw.RunTitle(path, len(grid.Cells())))
	return err
}

// DirFiles lists a directory's scenario files (*.yaml, *.yml, *.json)
// in name order (os.ReadDir sorts) — the file set of every -spec-dir
// mode. A directory without one is an error.
func DirFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		switch filepath.Ext(e.Name()) {
		case ".yaml", ".yml", ".json":
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no scenario files (*.yaml, *.yml, *.json)", dir)
	}
	return files, nil
}

// Columns returns the standard sweep table column set; the variant
// column appears only when the sweep declares a variants axis.
func Columns(withVariants bool) []string {
	columns := []string{"n", "f", "eps", "algorithm", "adversary"}
	if withVariants {
		columns = append(columns, "variant")
	}
	return append(columns, "decided", "violations", "rounds mean", "rounds p95", "range max")
}

// RowCells renders one aggregate row in the standard layout. It is the
// single formatting path behind both the buffered Table and the
// streaming CSV writer (report.RowStream), so a row streamed as it
// commits is byte-identical to the same row rendered after the sweep.
func RowCells(r anondyn.CellResult, withVariants bool) []string {
	g := func(v float64) string { return fmt.Sprintf("%.4g", v) }
	cells := []string{fmt.Sprint(r.N), fmt.Sprint(r.F), g(r.Eps), r.Algorithm, r.Adversary}
	if withVariants {
		cells = append(cells, r.Variant)
	}
	return append(cells,
		fmt.Sprintf("%d/%d", r.Decided, r.Runs), fmt.Sprint(r.Violations),
		g(r.Rounds.Mean), g(r.Rounds.P95), g(r.OutputRange.Max))
}

// HasVariants reports whether any row carries a variant name (the
// column-layout switch shared by Table and the streaming writers).
func HasVariants(rows []anondyn.CellResult) bool {
	for _, r := range rows {
		if r.Variant != "" {
			return true
		}
	}
	return false
}

// CellsDeclareVariants is HasVariants over compiled cells — streaming
// writers must pick the column layout before any row exists, so they
// ask the grid instead of the rows.
func CellsDeclareVariants(cells []anondyn.Cell) bool {
	for _, c := range cells {
		if c.Variant.Name != "" {
			return true
		}
	}
	return false
}

// Table renders sweep rows in the standard CLI layout — one aggregate
// row per cell, with a variant column only when the sweep declares a
// variants axis — so every dyna sweep path prints identical tables for
// identical sweeps.
func Table(title string, rows []anondyn.CellResult) *analysis.Table {
	withVariants := HasVariants(rows)
	tb := analysis.NewTable(title, Columns(withVariants)...)
	for _, r := range rows {
		tb.AddRow(RowCells(r, withVariants)...)
	}
	return tb
}
