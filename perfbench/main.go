// Command perfbench is the repository's benchmark. It runs one named
// workload through the public evolve facade for a fixed wall-clock
// window, checks the simulated outcome, and prints every metric by name
// and unit; the last line of standard output is the JSON result.
//
//	bash perfbench/run.sh --workload steady-fleet --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of the plain
// run. With --trace 1 a layer-timed run follows: the same world rebuilt
// from the layer packages with timers around the calls into them, run
// for the same number of steps. It must reach the plain run's outcome
// byte for byte, and the result then carries the per-layer metrics and
// the layer ledger. The simulator is a batch program, so throughput is
// virtual time simulated per wall second.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"evolve/internal/perf"
)

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "seed the workload is generated from")
	seconds := flag.Int("seconds", 20, "wall-clock seconds the plain run measures")
	trace := flag.Int("trace", 0, "1 adds the layer-timed run and reports per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	spec, err := Generate(*name, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".bench_build", "perfbench-run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	h := hostStamp(spec)
	hj, _ := json.Marshal(h)
	fmt.Printf("host %s\n", hj)
	if h.Oversubscribed {
		fmt.Println("warning: GOMAXPROCS, shards or workers exceed the CPUs of this host; parallel figures are not comparable")
	}
	fmt.Printf("workload %s seed %d: %d nodes, %d services, %d batch jobs, %d gangs, shards %d, ctrl workers %d, chaos %q, trace %v, scrape %v, checkpoint every %v\n",
		spec.Name, *seed, spec.Opts.Nodes, len(spec.Services), len(spec.Batch), len(spec.HPC),
		spec.Opts.Shards, spec.Opts.CtrlWorkers, spec.Opts.Chaos, spec.Trace, spec.Scrape, spec.CkptEvery)

	var t tally
	v := values{}
	p, ok := runPlain(spec, time.Duration(*seconds)*time.Second, dir, &t)
	if ok {
		plainMetrics(p, v)
		if *trace == 1 {
			var lr *layeredResult
			if lr, ok = runLayered(spec, dir, &t); ok {
				t.check("layered-outcome", lr.outcome == p.outcomeCmp,
					"the layer-timed run reached a different outcome than the plain run")
				layerMetrics(p, lr, v)
				printLedger(lr, v)
			}
		}
	}
	all := [][]metricDef{endToEnd, textOnly}
	if *trace == 1 {
		all = append(all, perLayer, layerTextOnly)
	}
	for _, defs := range all {
		checkDomains(v, defs, &t)
	}
	v["error_rate"] = ratio(float64(t.failed), float64(t.attempted))
	for _, defs := range all {
		for _, d := range defs {
			if x, ok := v[d.name]; ok {
				fmt.Printf("metric %s %v %s\n", d.name, x, d.unit)
			}
		}
	}
	for _, f := range t.failures {
		fmt.Println("FAIL", f)
	}

	correct := ok && t.failed == 0
	res := result{Correct: correct, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]metricValue{}}
	if correct {
		// A run that failed a check is reported as a failure, not timed.
		defs := endToEnd
		if *trace == 1 {
			defs = perLayer
		}
		for _, d := range defs {
			res.Metrics[d.name] = metricValue{Value: v[d.name], Unit: d.unit}
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// plainMetrics derives the end-to-end metrics and the plain run's share
// of the per-layer ones (ckpt, obs, evolve and the backlog).
func plainMetrics(p *plainResult, v values) {
	vsec := p.vsec()
	vmin := vsec / 60
	v["setup_s"] = median(p.setupS)
	// Timing metrics are medians over the completed episodes, so a burst
	// of host noise that slows one episode does not move them.
	var rate, cpu, p50, p95 []float64
	for _, e := range p.episodes {
		evsec := float64(len(e.stepNs)) * stepDur.Seconds()
		rate = append(rate, evsec/(float64(e.wallNs)/1e9))
		cpu = append(cpu, e.cpuS/(evsec/3600))
		step := nsToMS(e.stepNs)
		p50 = append(p50, quantile(step, 0.50))
		p95 = append(p95, quantile(step, 0.95))
	}
	v["vsec_per_s"] = median(rate)
	v["cpu_s_per_vhour"] = median(cpu)
	v["step_ms_p50"] = median(p50)
	v["step_ms_p95"] = median(p95)
	v["step_samples"] = float64(len(p.episodes[0].stepNs))
	v["episodes"] = float64(len(p.episodes))
	v["allocs_per_vmin"] = float64(p.allocs) / vmin
	v["peak_heap_mb"] = float64(p.peakHeap) / 1e6
	v["resume_s"] = median(p.resumeS)
	v["cpu_alloc_pct"] = p.report.ClusterCPUAllocated * 100
	var viol float64
	for _, s := range p.report.Services {
		viol += s.ViolationFraction
	}
	v["plo_violation_pct"] = ratio(viol, float64(len(p.report.Services))) * 100

	enc := nsToMS(p.ckptNs)
	v["ckpt.encode_ms_p50"] = median(enc)
	v["ckpt.encode_ms_max"] = maxOf(enc)
	// The first episode's checkpoints: the set-up one, then the cadence
	// up to the episode's end, before the first rewind repeats them.
	n := 1
	for n < len(p.ckptAt) && p.ckptAt[n] > p.ckptAt[n-1] {
		n++
	}
	v["ckpt.bytes"] = float64(p.ckptBytes[n-1])
	v["ckpt.bytes_growth_per_vmin"] = 0
	if n > 1 {
		v["ckpt.bytes_growth_per_vmin"] = float64(p.ckptBytes[n-1]-p.ckptBytes[0]) / (p.ckptAt[n-1] - p.ckptAt[0]).Minutes()
	}
	v["ckpt.decode_ms"] = median(nsToMS(p.decodeNs))
	v["obs.events_per_vmin"] = float64(p.traceEvents) / vmin
	v["obs.spans_per_vmin"] = float64(p.traceSpans) / vmin
	v["obs.event_bytes_per_vmin"] = float64(p.eventBytes) / vmin
	v["obs.span_bytes_per_vmin"] = float64(p.spanBytes) / vmin
	v["obs.sink_ms"] = float64(p.sinkNs) / 1e6 / float64(len(p.stepNs))
	v["obs.dropped"] = float64(p.drops)
	v["evolve.scrape_ms_p50"], v["evolve.scrape_bytes"] = 0, 0
	if len(p.scrapeNs) > 0 {
		v["evolve.scrape_ms_p50"] = median(nsToMS(p.scrapeNs))
		lens := make([]float64, len(p.scrapeLen))
		for i, l := range p.scrapeLen {
			lens[i] = float64(l)
		}
		v["evolve.scrape_bytes"] = median(lens)
	}
	v["cluster.pending_mean"] = mean(p.pending)
	v["cluster.pending_max"] = maxOf(p.pending)
}

// layerMetrics derives the per-layer metrics of the layer-timed run.
// Per-step figures divide by its step count; per-period ones by the
// control periods the loop ran; per-tick ones by the metric ticks.
func layerMetrics(p *plainResult, lr *layeredResult, v values) {
	d := lr.d
	steps := float64(lr.steps)
	ticks := lr.vsec / 5 // three 5 s metric ticks per 15 s step
	vmin := lr.vsec / 60
	periods := float64(d.periods)
	perStep := func(ns int64) float64 { return float64(ns) / 1e6 / steps }
	var stepTotal int64
	for _, ns := range lr.stepNs {
		stepTotal += ns
	}

	v["cluster.tick_ms"] = perStep(stepTotal - d.evalNs - d.applyNs)
	v["cluster.p1_ms"] = perStep(d.shardPhase[perf.PhaseP1])
	v["cluster.p2_ms"] = perStep(d.shardPhase[perf.PhaseP2])
	v["cluster.p3_ms"] = perStep(d.shardPhase[perf.PhaseP3])
	v["cluster.flush_apps_ms"] = perStep(d.phase[perf.PhaseFlushApps])
	v["cluster.flush_nodes_ms"] = perStep(d.phase[perf.PhaseFlushNodes])
	v["sim.events_per_vmin"] = float64(d.events) / vmin
	v["sim.rounds_per_tick"] = float64(d.rounds) / ticks
	v["sim.barrier_ms"] = perStep(d.phase[perf.PhaseBarrier])
	v["sim.mailbox_ms"] = perStep(d.phase[perf.PhaseMailbox])

	v["control.period_ms"] = ratio(float64(d.evalNs+d.applyNs)/1e6, periods)
	v["control.eval_ms"] = ratio(float64(d.evalNs)/1e6, periods)
	v["control.apply_ms"] = ratio(float64(d.applyNs)/1e6, periods)
	v["control.observe_us"] = ratio(float64(d.observeNs)/1e3, float64(d.observes))
	v["control.observes_per_period"] = ratio(float64(d.observes), periods)
	v["control.actuate_us"] = ratio(float64(d.actuateNs)/1e3, float64(d.actuations))
	v["control.actuations_per_period"] = ratio(float64(d.actuations), periods)
	v["control.actuation_fail_frac"] = ratio(float64(d.actuateErr), float64(d.actuations))
	v["control.retries"] = float64(d.loop.Retries)
	v["control.abandoned"] = float64(d.loop.Abandoned)
	v["core.decide_us"] = ratio(float64(d.decideNs)/1e3, float64(d.decisions))
	v["core.decisions_per_period"] = ratio(float64(d.decisions), periods)
	v["core.change_frac"] = ratio(float64(d.changes), float64(d.decisions))

	v["sched.drain_ms"] = perStep(d.phase[perf.PhaseSchedDrain])
	v["sched.calls_per_tick"] = float64(d.calls) / ticks
	v["sched.probed_per_call"] = ratio(float64(d.probed), float64(d.calls))
	v["sched.pruned_frac"] = ratio(float64(d.pruned), float64(d.probed+d.pruned))
	v["sched.bind_frac"] = ratio(float64(d.binds), float64(d.calls))
	v["sched.preempts"] = float64(d.preempts)

	var plainTotal int64
	for _, ns := range p.stepNs[:lr.steps] {
		plainTotal += ns
	}
	v["bench.timing_overhead_pct"] = (float64(stepTotal)/float64(plainTotal) - 1) * 100

	var attributed int64
	for _, row := range ledgerRows {
		ns := ledgerNs(d, row.name, row.phase)
		attributed += ns
		v["ledger."+row.name+"_frac"] = float64(ns) / float64(stepTotal)
	}
	v["ledger.unattributed_frac"] = 1 - float64(attributed)/float64(stepTotal)
}

// ledgerNs is one ledger row's wall nanoseconds over the window.
func ledgerNs(d counters, name string, phase int) int64 {
	switch {
	case name == "control_eval":
		return d.evalNs
	case name == "control_apply":
		return d.applyNs
	case phase == perf.PhaseP1 || phase == perf.PhaseP2 || phase == perf.PhaseP3:
		return d.shardPhase[phase]
	}
	return d.phase[phase]
}

// printLedger splits the layer-timed run's median step into the ledger
// rows by their share of the total step wall time, so the rows and the
// unattributed remainder add up to that median.
func printLedger(lr *layeredResult, v values) {
	p50 := quantile(nsToMS(lr.stepNs), 0.5)
	fmt.Printf("ledger step_ms_p50 %.4f ms (layer-timed run, %d steps)\n", p50, lr.steps)
	for _, row := range ledgerRows {
		f := v["ledger."+row.name+"_frac"]
		fmt.Printf("ledger %-22s %9.4f ms %6.2f%%\n", row.name, f*p50, f*100)
	}
	f := v["ledger.unattributed_frac"]
	fmt.Printf("ledger %-22s %9.4f ms %6.2f%%\n", "unattributed", f*p50, f*100)
}
