// Command evolve-explain answers "why did the autoscaler do that?" from
// a decision trace recorded by evolve-sim -trace (or a harness run with
// a trace directory), or from the binary stream of any obs.Tracer sink. Given an application and a virtual time it
// reconstructs the full decision chain: the observation the controller
// saw, the per-resource PID term decomposition (with clamping and
// anti-windup state), the gains and their adaptations, the stage that
// drove the decision, and the scheduler outcomes and PLO transitions
// around it.
//
// Examples:
//
//	evolve-sim -trace run.jsonl -duration 2h
//	evolve-explain -trace run.jsonl -summary          # find interesting moments
//	evolve-explain -trace run.jsonl -app web -at 43m  # why 7 replicas at t=43m?
//	evolve-explain -trace run.jsonl -app web -at 43m -json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"evolve/internal/obs"
)

func main() {
	var (
		trace   = flag.String("trace", "", "decision-trace file, JSONL (from evolve-sim -trace) or a binary trace stream")
		app     = flag.String("app", "", "application to explain")
		at      = flag.Duration("at", 0, "virtual time of interest (e.g. 43m)")
		window  = flag.Duration("window", 5*time.Minute, "how far around the decision to gather evidence")
		summary = flag.Bool("summary", false, "list replica changes and PLO onsets instead of explaining one decision")
		jsonOut = flag.Bool("json", false, "emit the chain as JSON instead of text")
	)
	flag.Parse()

	if *trace == "" {
		fmt.Fprintln(os.Stderr, "evolve-explain: -trace is required (record one with evolve-sim -trace)")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*trace)
	if err != nil {
		fatal(err)
	}
	events, err := obs.ReadTrace(f)
	f.Close()
	if err != nil {
		fatal(err)
	}
	if len(events) == 0 {
		fatal(fmt.Errorf("trace %s holds no events", *trace))
	}

	if *summary {
		for _, s := range obs.Summarise(events) {
			ev := s.Event
			switch ev.Kind {
			case obs.KindControl:
				fmt.Printf("%10v %-12s replicas %d→%d  (%s)\n", ev.At, s.App, ev.Replicas, ev.NewReplicas, ev.Detail)
			case obs.KindPLO:
				fmt.Printf("%10v %-12s PLO violation onset: sli=%.4g objective=%.4g\n", ev.At, s.App, ev.SLI, ev.Objective)
			}
		}
		return
	}

	if *app == "" {
		fmt.Fprintln(os.Stderr, "evolve-explain: -app is required (or use -summary to find one)")
		flag.Usage()
		os.Exit(2)
	}
	chain, err := obs.Explain(events, *app, *at, *window)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(chain); err != nil {
			fatal(err)
		}
		return
	}
	chain.Format(os.Stdout)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "evolve-explain:", err)
	os.Exit(1)
}
