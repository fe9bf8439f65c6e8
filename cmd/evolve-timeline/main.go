// Command evolve-timeline renders the causal span stream of a run as a
// text timeline, a per-kind flamegraph summary, or a single pod's
// explanation — the offline answer to "why was this pod slow to become
// ready?". It consumes the JSONL span files that `evolve-sim -spans`
// writes, or the binary span stream of any obs.Tracer span sink.
//
// Examples:
//
//	evolve-sim -spans spans.jsonl -duration 2h
//	evolve-timeline -spans spans.jsonl                  # full timeline
//	evolve-timeline -spans spans.jsonl -from 30m -to 45m
//	evolve-timeline -spans spans.jsonl -summary         # per-kind flamegraph
//	evolve-timeline -spans spans.jsonl -pod web-7       # one pod's path to ready
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"evolve/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "evolve-timeline:", err)
		os.Exit(1)
	}
}

// run is the testable body: parse flags, load the span stream, render.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("evolve-timeline", flag.ContinueOnError)
	var (
		spansPath = fs.String("spans", "", "span file, JSONL (from evolve-sim -spans) or a binary span stream; required")
		pod       = fs.String("pod", "", "explain this pod's path to readiness instead of the timeline")
		summary   = fs.Bool("summary", false, "print the per-kind duration aggregate instead of the timeline")
		from      = fs.Duration("from", 0, "timeline window start (virtual time)")
		to        = fs.Duration("to", 0, "timeline window end (0 = no bound)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spansPath == "" {
		return fmt.Errorf("-spans is required (produce one with: evolve-sim -spans spans.jsonl)")
	}
	f, err := os.Open(*spansPath)
	if err != nil {
		return err
	}
	defer f.Close()
	spans, err := obs.ReadSpans(f)
	if err != nil {
		return err
	}
	if len(spans) == 0 {
		return fmt.Errorf("%s holds no spans", *spansPath)
	}
	switch {
	case *pod != "":
		return obs.ExplainPodReady(stdout, spans, *pod)
	case *summary:
		obs.SummariseSpans(stdout, spans)
		return nil
	default:
		return obs.WriteTimeline(stdout, spans, *from, *to)
	}
}
