// Command dyna is the command line of anondyn: one binary whose
// subcommands regenerate the paper's tables, run scenarios and sweeps,
// serve and join the distributed sweep control plane, run the
// anonymous hub and node processes over real links, inspect recorded
// traces and gate benchmark regressions. dyna -h lists the
// subcommands, dyna <subcommand> -h its flags; each subcommand's file
// documents it with examples.
//
// The flags several subcommands share are registered by one helper
// each: the sweep source (-spec, -spec-dir, -seeds), the report target
// (-report), the process prologue (-cpuprofile, -exectrace, -metrics)
// and the control-plane secret and I/O bound (-token, -timeout).
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"anondyn/internal/metrics"
	"anondyn/internal/report"
	"anondyn/internal/shard"
	"anondyn/internal/spec"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "dyna:", err)
		os.Exit(1)
	}
}

// subcommands is the dispatch table, in the order usage lists it.
var subcommands = []struct {
	name, summary string
	run           func(args []string) error
}{
	{"tables", "regenerate the experiment tables E1–E13 and F1", runTables},
	{"sweep", "run a scenario matrix: spec files or axis flags, locally or over a -fleet", runSweep},
	{"run", "run one scenario, or a seeded batch of it", runScenario},
	{"validate", "parse, validate and compile spec files without running them", runValidate},
	{"serve", "run a resident sweep control plane", runServe},
	{"join", "run a sweep worker that joins a control plane", runJoin},
	{"submit", "submit a spec to a control plane and render the merged rows", runSubmit},
	{"status", "list a control plane's workers and sweeps", runStatus},
	{"hub", "run the round coordinator of a distributed execution", runHub},
	{"node", "run one anonymous consensus node against a hub", runNode},
	{"trace", "analyze a recorded execution log", runTrace},
	{"gate", "fail on a benchmark regression against a baseline", runGate},
}

// run dispatches args to its subcommand. With none, an unknown one or
// -h it prints the subcommand list to stderr.
func run(args []string) error {
	for _, c := range subcommands {
		if len(args) > 0 && c.name == args[0] {
			return c.run(args[1:])
		}
	}
	fmt.Fprintln(os.Stderr, "usage: dyna <subcommand> [flags]\n\nsubcommands:")
	for _, c := range subcommands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(os.Stderr, "\nrun dyna <subcommand> -h for its flags")
	switch {
	case len(args) == 0:
		return errors.New("missing subcommand")
	case args[0] == "-h" || args[0] == "-help" || args[0] == "--help" || args[0] == "help":
		return flag.ErrHelp
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

// newFlagSet returns a subcommand's flag set; operands names its
// positional arguments in the usage line.
func newFlagSet(name, operands string) *flag.FlagSet {
	fs := flag.NewFlagSet("dyna "+name, flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: dyna %s [flags]%s\n", name, operands)
		fs.PrintDefaults()
	}
	return fs
}

// parse parses args into fs, letting flags follow the positional
// arguments, and checks that between lo and hi of those are given.
func parse(fs *flag.FlagSet, args []string, lo, hi int) ([]string, error) {
	var operands []string
	for {
		if err := fs.Parse(args); err != nil {
			return nil, err
		}
		if fs.NArg() == 0 {
			break
		}
		operands = append(operands, fs.Arg(0))
		args = fs.Args()[1:]
	}
	if len(operands) < lo || len(operands) > hi {
		fs.Usage()
		return nil, fmt.Errorf("%s: want %d to %d arguments, got %d", fs.Name(), lo, hi, len(operands))
	}
	return operands, nil
}

// source is a sweep read from spec files: -spec names one file,
// -spec-dir a directory of them, and -seeds overrides each file's
// seeds_per_cell (0 keeps it).
type source struct {
	file, dir string
	seeds     int
}

// addSource registers -spec, plus -spec-dir and -seeds where the
// subcommand takes them.
func addSource(fs *flag.FlagSet, dir, seeds bool) *source {
	s := &source{}
	fs.StringVar(&s.file, "spec", "", "YAML/JSON scenario file")
	if dir {
		fs.StringVar(&s.dir, "spec-dir", "", "directory of scenario files (*.yaml, *.yml, *.json), run in name order")
	}
	if seeds {
		fs.IntVar(&s.seeds, "seeds", 0, "Monte-Carlo runs per cell; overrides the spec's seeds_per_cell (0 = keep it; an axis sweep's is 20)")
	}
	return s
}

// files lists the spec files to run: none without -spec or -spec-dir.
func (s *source) files() ([]string, error) {
	switch {
	case s.file != "" && s.dir != "":
		return nil, errors.New("-spec and -spec-dir are mutually exclusive")
	case s.dir != "":
		return spec.DirFiles(s.dir)
	case s.file != "":
		return []string{s.file}, nil
	}
	return nil, nil
}

// addReport registers -report, the report target: "csv", "json" or
// "html" write to stdout, a path writes a file in the format its
// extension names (.csv, .html, else JSON).
func addReport(fs *flag.FlagSet, usage string) *report.Target {
	t := &report.Target{}
	fs.Func("report", `"csv"/"json"/"html" for stdout, or a path (.csv/.html → that format, else JSON)`+usage,
		func(s string) error {
			*t = report.ParseTarget(s)
			return nil
		})
	return t
}

// process runs the body of a long-running subcommand.
type process func(body func(coll *metrics.Collector) error) error

// addProcess registers the process prologue: a CPU profile, an
// execution trace and a live metrics stream, each recorded over the
// whole command. The process starts the recorders — an uncreatable
// file fails before body runs — runs body with the metrics collector
// (nil without -metrics), and stops them, whether body succeeded or
// not.
func addProcess(fs *flag.FlagSet) process {
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file (read it with go tool pprof)")
	execTrace := fs.String("exectrace", "", "write a runtime execution trace of the whole run to this file (read it with go tool trace)")
	metricsOut := fs.String("metrics", "", "stream live metrics snapshots as NDJSON to this file or host:port address")
	return func(body func(*metrics.Collector) error) (err error) {
		coll, stop, err := metrics.StartProcess(*cpuProfile, *execTrace, *metricsOut)
		if err != nil {
			return err
		}
		defer func() {
			if serr := stop(); err == nil {
				err = serr
			}
		}()
		return body(coll)
	}
}

// addToken registers -token, the control plane's shared secret.
func addToken(fs *flag.FlagSet) *string {
	return fs.String("token", "", "shared secret for the shard handshake (all parties must agree; empty disables auth)")
}

// addTimeout registers -timeout, the control-plane I/O bound.
func addTimeout(fs *flag.FlagSet) *time.Duration {
	return fs.Duration("timeout", shard.DefaultIOTimeout, "per-frame I/O bound (for a record stream: the gap between records)")
}

// stderrLog is the log callback of the long-running services.
func stderrLog(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) }

// serveUntilSignal waits until errc delivers or SIGINT/SIGTERM
// arrives. An error from errc runs stop and is returned. A signal
// prints note and runs drain; a second signal during the drain runs
// stop.
func serveUntilSignal(errc <-chan error, note string, drain, stop func()) error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)
	select {
	case err := <-errc:
		stop()
		return err
	case <-sig:
	}
	fmt.Fprintln(os.Stderr, "dyna: draining ("+note+")")
	done := make(chan struct{})
	go func() {
		drain()
		close(done)
	}()
	select {
	case <-done:
	case <-sig:
		stop()
	}
	return nil
}
