package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// contract is BENCHMARK.json at the repository root: the command, the
// workloads, and each metric's unit, direction and — for the end-to-end
// ones — regression bound.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// readContract loads BENCHMARK.json from the working directory (the
// repository root under `go run ./benchmark`) or its parent (this
// directory, as under `go test`).
func readContract() (*contract, error) {
	var (
		data []byte
		err  error
	)
	for _, path := range []string{"BENCHMARK.json", "../BENCHMARK.json"} {
		if data, err = os.ReadFile(path); err == nil {
			break
		}
	}
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// spread is the distance between the quartiles of the samples as a
// share of their median — how far one run's reps disagree.
func spread(samples []float64) float64 {
	med := median(samples)
	if len(samples) < 2 || med == 0 {
		return 0
	}
	return (quantile(samples, 0.75) - quantile(samples, 0.25)) / med
}

// verdict applies one metric's bound to an old and a new value: worse
// or better when the new median is beyond the bound on that side,
// unresolved when either run's own spread is wider than the bound (the
// runs cannot tell a change of that size from noise), same otherwise.
func verdict(m contractMetric, old, new metric) (string, float64) {
	if old.Value == 0 {
		return "unresolved", 0
	}
	change := (new.Value - old.Value) / old.Value
	worse := change
	if m.Better == "higher" {
		worse = -change
	}
	switch {
	case spread(old.Samples) > m.Bound || spread(new.Samples) > m.Bound:
		return "unresolved", change
	case worse > m.Bound:
		return "worse", change
	case worse < -m.Bound:
		return "better", change
	}
	return "same", change
}

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, and warns where a workload's sim_digest changed: a
// change that only makes the program faster leaves every digest as it
// was.
func compareFiles(w io.Writer, oldPath, newPath string) error {
	c, err := readContract()
	if err != nil {
		return err
	}
	oldFile, err := readResults(oldPath)
	if err != nil {
		return err
	}
	newFile, err := readResults(newPath)
	if err != nil {
		return err
	}
	find := func(f *resultFile, workload string) *result {
		for _, r := range f.Results {
			if r.Workload == workload && !r.Traced {
				return r
			}
		}
		return nil
	}
	fmt.Fprintf(w, "old: %s (%s, %d cores, seed %d)\nnew: %s (%s, %d cores, seed %d)\n",
		oldPath, oldFile.Host.CPU, oldFile.Host.Cores, oldFile.Seed,
		newPath, newFile.Host.CPU, newFile.Host.Cores, newFile.Seed)
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told\tnew\tchange\tbound\tverdict")
	var warnings []string
	for _, wl := range c.Workloads {
		o, n := find(oldFile, wl.Name), find(newFile, wl.Name)
		if o == nil || n == nil {
			continue
		}
		for _, m := range c.EndToEnd {
			om, ok1 := o.Metrics[m.Name]
			nm, ok2 := n.Metrics[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			v, change := verdict(m, om, nm)
			fmt.Fprintf(tw, "%s\t%s\t%.6g %s\t%.6g %s\t%+.1f%%\t%.0f%%\t%s\n",
				wl.Name, m.Name, om.Value, om.Unit, nm.Value, nm.Unit, 100*change, 100*m.Bound, v)
		}
		if o.Failed > 0 || n.Failed > 0 {
			warnings = append(warnings, fmt.Sprintf("%s: failed runs: old %d of %d, new %d of %d", wl.Name, o.Failed, o.Attempted, n.Failed, n.Attempted))
		}
		if o.SimDigest != n.SimDigest && oldFile.Seed == newFile.Seed {
			warnings = append(warnings, fmt.Sprintf("%s: sim_digest changed (%.12s -> %.12s): the two sides did not simulate the same thing", wl.Name, o.SimDigest, n.SimDigest))
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if oldFile.Seed != newFile.Seed {
		warnings = append(warnings, fmt.Sprintf("seeds differ (%d vs %d): sim_digests are not comparable", oldFile.Seed, newFile.Seed))
	}
	for _, warn := range warnings {
		fmt.Fprintln(w, "WARNING:", warn)
	}
	return nil
}
