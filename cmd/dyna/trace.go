package main

// dyna trace inspects a recorded execution log (the JSONL files
// dyna run -trace writes): it summarizes the run, reconstructs the
// dynamic graph, reports which (T, D)-dynaDegree the adversary actually
// provided, and checks the prior stability properties of §II-B for
// comparison.
//
//	dyna run   -algo dac -n 7 -adversary rotating:3 -trace run.jsonl
//	dyna trace -n 7 run.jsonl
//	dyna trace -n 7 -events run.jsonl     # dump the event log

import (
	"fmt"
	"os"

	"anondyn/internal/network"
	"anondyn/internal/trace"
)

func runTrace(args []string) error {
	out := os.Stdout
	fs := newFlagSet("trace", " <trace.jsonl>")
	var (
		n          = fs.Int("n", 0, "network size (required)")
		dumpEvents = fs.Bool("events", false, "dump every event in human-readable form")
		maxT       = fs.Int("maxt", 8, "largest window T to analyze")
	)
	operands, err := parse(fs, args, 1, 1)
	if err != nil {
		return err
	}
	if *n < 1 {
		return fmt.Errorf("-n is required and must be ≥ 1")
	}
	f, err := os.Open(operands[0])
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := trace.ReadJSONL(f)
	if err != nil {
		return err
	}
	if len(events) == 0 {
		return fmt.Errorf("empty trace")
	}

	if *dumpEvents {
		for _, e := range events {
			fmt.Fprintln(out, trace.Describe(e))
		}
		return nil
	}

	summary := summarize(events)
	fmt.Fprintf(out, "events: %d  rounds: %d\n", len(events), summary.rounds)
	fmt.Fprintf(out, "broadcasts: %d  deliveries: %d  phase transitions: %d\n",
		summary.broadcasts, summary.deliveries, summary.phases)
	if len(summary.crashes) > 0 {
		fmt.Fprintf(out, "crashes: %v\n", summary.crashes)
	}
	if len(summary.decides) > 0 {
		fmt.Fprintf(out, "decisions: %d nodes, first round %d, last round %d\n",
			len(summary.decides), summary.firstDecide, summary.lastDecide)
	} else {
		fmt.Fprintln(out, "decisions: none recorded")
	}

	replay, err := trace.NewReplay(*n, events)
	if err != nil {
		return err
	}
	tr := replay.Trace()
	ff := make([]int, *n)
	for i := range ff {
		ff[i] = i
	}
	fmt.Fprintf(out, "\ndynaDegree analysis over %d recorded rounds (all nodes treated fault-free):\n", len(tr))
	for t := 1; t <= *maxT && t <= len(tr); t *= 2 {
		fmt.Fprintf(out, "  (T=%d, D=%d)-dynaDegree\n", t, network.MaxDynaDegree(tr, ff, t))
	}
	fmt.Fprintf(out, "\nprior properties (§II-B):\n")
	fmt.Fprintf(out, "  rooted spanning tree every round: %v\n", network.EveryRoundRooted(tr))
	fmt.Fprintf(out, "  1-interval connectivity: %v\n", network.TIntervalConnected(tr, 1))
	return nil
}

type traceSummary struct {
	rounds      int
	broadcasts  int
	deliveries  int
	phases      int
	crashes     []int
	decides     map[int]float64
	firstDecide int
	lastDecide  int
}

func summarize(events []trace.Event) traceSummary {
	s := traceSummary{decides: make(map[int]float64), firstDecide: -1}
	for _, e := range events {
		switch e.Kind {
		case trace.KindRound:
			s.rounds++
		case trace.KindBroadcast:
			s.broadcasts++
		case trace.KindDeliver:
			s.deliveries++
		case trace.KindPhase:
			s.phases++
		case trace.KindCrash:
			s.crashes = append(s.crashes, e.Node)
		case trace.KindDecide:
			s.decides[e.Node] = e.Value
			if s.firstDecide < 0 || e.Round < s.firstDecide {
				s.firstDecide = e.Round
			}
			if e.Round > s.lastDecide {
				s.lastDecide = e.Round
			}
		}
	}
	return s
}
