package main

import (
	"fmt"
	"math"

	"evolve/internal/perf"
)

// domain is the range a metric's value must fall in; a value outside it
// is a defect in the program or the benchmark, not a measurement.
type domain int

const (
	nonNeg   domain = iota // times, counts, rates: >= 0
	percent                // [0, 100]
	fraction               // [0, 1]
	overhead               // a signed percentage change: >= -100
	finite                 // a signed rate of change
)

func (d domain) contains(v float64) bool {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return false
	}
	switch d {
	case percent:
		return v >= 0 && v <= 100
	case fraction:
		return v >= 0 && v <= 1
	case overhead:
		return v >= -100
	case finite:
		return true
	}
	return v >= 0
}

type metricDef struct {
	name, unit string
	dom        domain
}

// endToEnd are the metrics a user of the simulator sees, measured by the
// plain run; the result line carries them with --trace 0. Each is
// listed in BENCHMARK.json with its regression bound.
var endToEnd = []metricDef{
	{"setup_s", "s", nonNeg},
	{"cpu_s_per_vhour", "s", nonNeg},
	{"step_ms_p50", "ms", nonNeg},
	{"allocs_per_vmin", "objects", nonNeg},
	{"peak_heap_mb", "MB", nonNeg},
	{"resume_s", "s", nonNeg},
	{"cpu_alloc_pct", "%", percent},
}

// ledgerRows are the disjoint parts of a step the layer-timed run can
// time, in execution order; whatever they leave is ledger.unattributed.
// Parallel tick phases count their busiest shard (the critical path),
// so their rows never exceed the wall time they cover.
var ledgerRows = []struct {
	name  string
	phase int // perf phase index, or -1 for the control loop's own timing
}{
	{"control_eval", -1},
	{"control_apply", -1},
	{"sched_drain", perf.PhaseSchedDrain},
	{"cluster_p1", perf.PhaseP1},
	{"cluster_p2", perf.PhaseP2},
	{"cluster_flush_apps", perf.PhaseFlushApps},
	{"cluster_p3", perf.PhaseP3},
	{"cluster_flush_nodes", perf.PhaseFlushNodes},
	{"sim_mailbox", perf.PhaseMailbox},
}

// perLayer are the single-layer metrics the result line carries with
// --trace 1. They are the ones every workload measures; a time that a
// workload's configuration never exercises (the sharded tick phases at
// one shard, the trace sinks without a tracer) would read 0 on every run
// of that workload, so those are in layerTextOnly and appear in the
// ledger as shares instead.
var perLayer = append([]metricDef{
	{"cluster.tick_ms", "ms", nonNeg},
	{"cluster.pending_mean", "pods", nonNeg},
	{"cluster.pending_max", "pods", nonNeg},
	{"sim.events_per_vmin", "events", nonNeg},
	{"sim.rounds_per_tick", "rounds", nonNeg},
	{"control.period_ms", "ms", nonNeg},
	{"control.apply_ms", "ms", nonNeg},
	{"control.observe_us", "us", nonNeg},
	{"control.observes_per_period", "calls", nonNeg},
	{"control.actuate_us", "us", nonNeg},
	{"control.actuations_per_period", "calls", nonNeg},
	{"control.actuation_fail_frac", "fraction", fraction},
	{"control.retries", "count", nonNeg},
	{"control.abandoned", "count", nonNeg},
	{"core.decide_us", "us", nonNeg},
	{"core.decisions_per_period", "decisions", nonNeg},
	{"core.change_frac", "fraction", fraction},
	{"sched.drain_ms", "ms", nonNeg},
	{"sched.calls_per_tick", "calls", nonNeg},
	{"sched.probed_per_call", "nodes", nonNeg},
	{"sched.pruned_frac", "fraction", fraction},
	{"sched.bind_frac", "fraction", fraction},
	{"sched.preempts", "count", nonNeg},
	{"ckpt.encode_ms_p50", "ms", nonNeg},
	{"ckpt.encode_ms_max", "ms", nonNeg},
	{"ckpt.bytes", "bytes", nonNeg},
	{"ckpt.bytes_growth_per_vmin", "bytes", finite},
	{"ckpt.decode_ms", "ms", nonNeg},
	{"obs.events_per_vmin", "events", nonNeg},
	{"obs.spans_per_vmin", "spans", nonNeg},
	{"obs.event_bytes_per_vmin", "bytes", nonNeg},
	{"obs.span_bytes_per_vmin", "bytes", nonNeg},
	{"obs.dropped", "count", nonNeg},
	{"evolve.scrape_bytes", "bytes", nonNeg},
	{"ledger.unattributed_frac", "fraction", fraction},
	{"bench.timing_overhead_pct", "%", overhead},
}, ledgerShares()...)

func ledgerShares() []metricDef {
	var out []metricDef
	for _, row := range ledgerRows {
		out = append(out, metricDef{"ledger." + row.name + "_frac", "fraction", fraction})
	}
	return out
}

// layerTextOnly are printed in the text report of a --trace 1 run but
// not carried in the result line (see perLayer).
var layerTextOnly = []metricDef{
	{"cluster.p1_ms", "ms", nonNeg},
	{"cluster.p2_ms", "ms", nonNeg},
	{"cluster.flush_apps_ms", "ms", nonNeg},
	{"cluster.p3_ms", "ms", nonNeg},
	{"cluster.flush_nodes_ms", "ms", nonNeg},
	{"sim.barrier_ms", "ms", nonNeg},
	{"sim.mailbox_ms", "ms", nonNeg},
	{"control.eval_ms", "ms", nonNeg},
	{"obs.sink_ms", "ms", nonNeg},
	{"evolve.scrape_ms_p50", "ms", nonNeg},
}

// textOnly are end-to-end figures printed but not carried in the result
// line. On a shared 2-vCPU host the CPU time the hypervisor steals moves
// vsec_per_s and step_ms_p95 more than a regression bound can allow:
// across ten seeds of converged-full-stack, vsec_per_s spread 37% from
// quartile to quartile while cpu_s_per_vhour, which steal does not
// count, spread 13%, and step_ms_p95 of steady-fleet doubled between a
// quiet and a busy quarter-hour while the median step moved 15%.
// cpu_s_per_vhour and step_ms_p50 carry throughput and step latency in
// the result line instead. plo_violation_pct describes the autoscaler's
// behaviour, not the simulator's speed. error_rate is 0 on every correct
// run; the line carries attempted and failed instead.
var textOnly = []metricDef{
	{"vsec_per_s", "vs/s", nonNeg},
	{"step_ms_p95", "ms", nonNeg},
	{"plo_violation_pct", "%", percent},
	{"error_rate", "fraction", fraction},
	{"step_samples", "steps", nonNeg}, // per episode
	{"episodes", "count", nonNeg},
}

// values maps metric name to its measured value.
type values map[string]float64

// checkDomains records one output check per metric in defs that has a
// value, failing any outside its domain.
func checkDomains(v values, defs []metricDef, t *tally) {
	for _, d := range defs {
		x, ok := v[d.name]
		if !ok {
			continue
		}
		t.check("domain "+d.name, d.dom.contains(x), fmt.Sprintf("%s = %v is outside its domain", d.name, x))
	}
}
