// Command benchmark is the repository's benchmark: six named workloads
// measured end to end with tracing off, and a separate traced run that
// splits each workload's time by layer. See README.md in this directory
// and BENCHMARK.json at the repository root.
//
//	go run ./benchmark                       every workload, untraced then traced
//	go run ./benchmark -workload storm-10k   one workload
//	go run ./benchmark -json a.json          also write a result file
//	go run ./benchmark -compare a.json b.json
//
// With -workload and -trace 0|1 it makes exactly one run and prints one
// JSON object as its last line: correct, attempted, failed and the
// end-to-end (-trace 0) or per-layer (-trace 1) metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// resultFile is what -json writes and -compare reads.
type resultFile struct {
	Host    host      `json:"host"`
	Seed    int64     `json:"seed"`
	Results []*result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], fullSizes, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run is main with its inputs passed in: the arguments, the workload
// sizes (the test suite shrinks them) and the two output streams.
func run(args []string, sz sizes, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name     = fs.String("workload", "", "run only this workload (default: all six)")
		seed     = fs.Int64("seed", 1, "workload seed: every input is rendered from it")
		seconds  = fs.Float64("seconds", 0, "measure for this long (at least 3 reps); 0 = the workload's fixed rep count")
		reps     = fs.Int("reps", 0, "timed reps per workload; overrides -seconds")
		trace    = fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics, traced; default: one run of each")
		jsonPath = fs.String("json", "", "write every result to this file (the input of -compare)")
		outDir   = fs.String("out", "benchmark/out", "directory for trace-<workload>.json span files")
		compare  = fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}

	selected := workloads
	if *name != "" {
		w, ok := findWorkload(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q", *name)
		}
		selected = []workload{w}
	}
	// No more simulation threads than min(nproc, 4): the local pool gets
	// all of them, the two loopback shard workers half each.
	procs := min(runtime.NumCPU(), 4)
	runtime.GOMAXPROCS(procs)
	h := hostInfo()
	fmt.Fprintf(stdout, "host: %s, %d cores, GOMAXPROCS %d, %s\n", h.CPU, h.Cores, h.GOMAXPROCS, h.Go)

	file := resultFile{Host: h, Seed: *seed}
	failed := 0
	for _, traced := range []bool{false, true} {
		if *trace >= 0 && traced != (*trace == 1) {
			continue
		}
		for _, w := range selected {
			o := options{
				seed: *seed, reps: *reps, seconds: time.Duration(*seconds * float64(time.Second)),
				procs: procs, sz: sz, outDir: *outDir, log: stderr,
			}
			if o.reps <= 0 && o.seconds <= 0 {
				o.reps = w.reps
			}
			var (
				res  *result
				err  error
				defs = endToEnd
			)
			if traced {
				res, err = runTraced(w, o, h)
				defs = perLayer
			} else {
				res, err = runUntraced(w, o)
			}
			if err != nil {
				return err
			}
			printResult(stdout, res, defs)
			file.Results = append(file.Results, res)
			failed += res.Failed
		}
	}
	if *jsonPath != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if len(file.Results) == 1 {
		if err := printContractLine(stdout, file.Results[0]); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d simulated runs failed", failed)
	}
	return nil
}

// printContractLine prints the single-run summary a driver parses from
// the last line of standard output.
func printContractLine(w io.Writer, res *result) error {
	line := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for name, m := range res.Metrics {
		line.Metrics[name] = metric{Value: m.Value, Unit: m.Unit} // without the samples
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(data))
	return err
}
