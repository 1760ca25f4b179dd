package report

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"anondyn"
	"anondyn/internal/analysis"
	"anondyn/internal/chaos"
	"anondyn/internal/spec"
)

// Sweep is the JSON envelope of one completed sweep — the exact shape
// the sweep CLIs used to assemble by hand, so existing
// consumers (notably the CI distributed-smoke job's `.cells` diff) keep
// working. Series is the one addition: per-cell convergence curves for
// the HTML report, omitted from JSON when absent.
type Sweep struct {
	Spec         string               `json:"spec,omitempty"`
	SeedsPerCell int                  `json:"seeds_per_cell"`
	BaseSeed     int64                `json:"base_seed"`
	Workers      int                  `json:"workers"`
	Cells        []anondyn.CellResult `json:"cells"`
	// Series holds cell i's range-per-round curve at Series[i] (first
	// seed of the cell; see Grid.SeriesPerCell). Populated only when the
	// target format wants it.
	Series [][]float64 `json:"series,omitempty"`
	// Verdicts are the stress assertions' pass/fail outcomes — present
	// only for sweeps with a stress section (see spec.Sweep.Verdicts).
	Verdicts []chaos.Verdict `json:"verdicts,omitempty"`
	// Storm is the first run's materialized storm timeline — present
	// only for sweeps with a stress section.
	Storm []chaos.TimelineEntry `json:"storm,omitempty"`
	// Title is the human heading (table caption, HTML page title); not
	// part of the JSON envelope.
	Title string `json:"-"`
	// Eps annotates the charts with the smallest ε of the sweep; not
	// part of the JSON envelope.
	Eps float64 `json:"-"`
}

// NewSweep is the envelope of sw's finished rows. The cells array is
// the determinism contract, byte-identical locally or sharded; the rest
// records the run. workers is a local run's pool size or a sharded
// run's worker-process count, so parity checks compare .cells. The
// verdicts derive from (spec, rows) alone, so a sharded report carries
// the local run's verdict block. path names an unnamed sweep's title.
func NewSweep(sw *spec.Sweep, path string, workers int, rows []anondyn.CellResult) *Sweep {
	return &Sweep{
		Spec:         sw.Name,
		SeedsPerCell: max(sw.SeedsPerCell, 1),
		BaseSeed:     sw.BaseSeed,
		Workers:      workers,
		Cells:        rows,
		Title:        sw.RunTitle(path, len(rows)),
		Verdicts:     sw.Verdicts(rows),
		Storm:        sw.StormTimeline(),
	}
}

// RunLocal runs a compiled sweep on this process's batch pool and
// emits it — the one local sweep path (dyna sweep with -spec, -spec-dir
// or axis flags). path is the spec file the sweep came from.
func RunLocal(sw *spec.Sweep, grid anondyn.Grid, path string, opts anondyn.BatchOptions, target Target) error {
	rows, err := grid.Run(opts)
	if err != nil {
		return err
	}
	return Emit(NewSweep(sw, path, opts.Workers, rows), grid, target, sw.Description, "", false, false)
}

// Emit is the one output path of a finished sweep. A stdout target's
// document is all of stdout, so the output parses. Otherwise stdout
// carries the description banner, the aggregate table, the verdict
// lines and the caller's footer, and the document goes to the target's
// file, noted by name. quiet drops the banner and the note; streamed
// says a RowStream already wrote the target, so the document is not
// written again. An HTML target charts each cell's convergence from one
// extra sequential run of grid per cell (Grid.SeriesPerCell: a series
// records one run, so it rides on none of the pooled ones).
func Emit(doc *Sweep, grid anondyn.Grid, target Target, description, footer string, quiet, streamed bool) error {
	if target.Format == FormatHTML {
		var err error
		if doc.Series, err = grid.SeriesPerCell(); err != nil {
			return err
		}
	}
	if target.Stdout() {
		if streamed {
			return nil
		}
		return target.Write(doc)
	}
	if description != "" && !quiet {
		fmt.Printf("# %s\n", description)
	}
	if err := doc.table().Fprint(os.Stdout); err != nil {
		return err
	}
	if err := FprintVerdicts(os.Stdout, doc.Verdicts); err != nil {
		return err
	}
	fmt.Print(footer)
	if !streamed {
		if err := target.Write(doc); err != nil {
			return err
		}
	}
	if target.Enabled() && !quiet {
		fmt.Printf("(report written to %s)\n", target.Path)
	}
	return nil
}

// SaveSpec writes sw to path as a spec file named after the file, with
// the given description, and notes it on stdout — on stderr when the
// target's document owns stdout.
func SaveSpec(path, description string, sw *spec.Sweep, target Target) error {
	named := *sw
	named.Name = strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
	named.Description = description
	if err := os.WriteFile(path, named.Encode(), 0o644); err != nil {
		return err
	}
	note := os.Stdout
	if target.Stdout() {
		note = os.Stderr
	}
	_, err := fmt.Fprintf(note, "(spec written to %s)\n", path)
	return err
}

// table is the sweep's aggregate table in the standard CLI layout.
func (s *Sweep) table() *analysis.Table { return spec.Table(s.Title, s.Cells) }

// WriteJSON implements Document with the historical envelope bytes:
// two-space indent, trailing newline.
func (s *Sweep) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteCSV implements Document via the standard sweep table layout,
// followed by a verdict section for stress sweeps.
func (s *Sweep) WriteCSV(w io.Writer) error {
	if err := s.table().WriteCSV(w); err != nil {
		return err
	}
	if len(s.Verdicts) == 0 {
		return nil
	}
	if _, err := io.WriteString(w, "\n"); err != nil {
		return err
	}
	tb := analysis.NewTable("", "assertion", "verdict", "detail")
	for _, v := range s.Verdicts {
		tb.AddRow(v.Assertion, passFail(v.Pass), v.Detail)
	}
	return tb.WriteCSV(w)
}

// passFail renders a verdict outcome.
func passFail(pass bool) string {
	if pass {
		return "PASS"
	}
	return "FAIL"
}

// FprintVerdicts prints storm verdicts in the CLI layout — one line
// per assertion after the sweep table. No-op without verdicts.
func FprintVerdicts(w io.Writer, vs []chaos.Verdict) error {
	for _, v := range vs {
		if _, err := fmt.Fprintf(w, "verdict %s  %-24s %s\n", passFail(v.Pass), v.Assertion, v.Detail); err != nil {
			return err
		}
	}
	return nil
}

// WriteHTML implements Document: one self-contained page with the
// aggregate table and, when Series is populated, one convergence chart
// per cell.
func (s *Sweep) WriteHTML(w io.Writer) error {
	blocks := []any{s.summaryTable()}
	if len(s.Verdicts) > 0 {
		blocks = append(blocks, s.verdictTable())
	}
	if len(s.Storm) > 0 {
		blocks = append(blocks, s.stormTable())
	}
	for i, series := range s.Series {
		if i >= len(s.Cells) || len(series) == 0 {
			continue
		}
		c := s.Cells[i]
		caption := fmt.Sprintf("cell %d — n=%d f=%d ε=%g %s / %s", i, c.N, c.F, c.Eps, c.Algorithm, c.Adversary)
		if c.Variant != "" {
			caption += " / " + c.Variant
		}
		blocks = append(blocks, HTMLChart{Caption: caption, Series: series, Eps: c.Eps})
	}
	title := s.Title
	if title == "" {
		title = "sweep report"
	}
	sub := fmt.Sprintf("%d cells · %d seeds/cell · base seed %d", len(s.Cells), max(s.SeedsPerCell, 1), s.BaseSeed)
	return WriteHTMLPage(w, title, sub, blocks...)
}

// verdictTable renders the stress assertions' outcomes — the block the
// CI chaos-smoke job greps for.
func (s *Sweep) verdictTable() HTMLTable {
	tb := HTMLTable{Caption: "storm verdicts", Header: []string{"assertion", "verdict", "detail"}}
	for _, v := range s.Verdicts {
		tb.Rows = append(tb.Rows, []string{v.Assertion, passFail(v.Pass), v.Detail})
	}
	return tb
}

// stormTable renders the first run's storm timeline.
func (s *Sweep) stormTable() HTMLTable {
	tb := HTMLTable{Caption: "storm timeline (first run)", Header: []string{"round", "event", "nodes", "detail"}}
	for _, e := range s.Storm {
		tb.Rows = append(tb.Rows, []string{fmt.Sprint(e.Round), e.Kind, fmt.Sprint(e.Nodes), e.Detail})
	}
	return tb
}

// summaryTable mirrors spec.Table's column layout.
func (s *Sweep) summaryTable() HTMLTable {
	withVariants := false
	for _, r := range s.Cells {
		if r.Variant != "" {
			withVariants = true
			break
		}
	}
	header := []string{"n", "f", "eps", "algorithm", "adversary"}
	if withVariants {
		header = append(header, "variant")
	}
	header = append(header, "decided", "violations", "rounds mean", "rounds p95", "range max")
	tb := HTMLTable{Caption: "sweep summary", Header: header}
	for _, r := range s.Cells {
		row := []string{
			fmt.Sprint(r.N), fmt.Sprint(r.F), fmt.Sprintf("%g", r.Eps),
			r.Algorithm, r.Adversary,
		}
		if withVariants {
			row = append(row, r.Variant)
		}
		row = append(row,
			fmt.Sprintf("%d/%d", r.Decided, r.Runs),
			fmt.Sprint(r.Violations),
			fmt.Sprintf("%.1f", r.Rounds.Mean),
			fmt.Sprintf("%.0f", r.Rounds.P95),
			fmt.Sprintf("%.3g", r.OutputRange.Max),
		)
		tb.Rows = append(tb.Rows, row)
	}
	return tb
}
