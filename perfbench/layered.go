package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"sync/atomic"
	"time"

	"evolve"
	"evolve/internal/batch"
	"evolve/internal/chaos"
	"evolve/internal/ckpt"
	"evolve/internal/cluster"
	"evolve/internal/control"
	"evolve/internal/core"
	"evolve/internal/hpc"
	"evolve/internal/obs"
	"evolve/internal/perf"
	"evolve/internal/resource"
	"evolve/internal/sim"
	"evolve/internal/workload"
)

// The layer-timed run rebuilds a workload's world from the layer
// packages, in the order evolve.New, AddService, Submit*, EnableTracing
// and Run use, so it can wrap the control loop's Plant and every
// Controller with timers. It reads the counters the layers already
// export and adds no tracing inside the program. Its figures count only
// when its simulated outcome equals the plain run's.

// timedPlant wraps the cluster as the control loop's Plant, timing the
// read path (Observe) and the write path (ApplyDecision). The loop
// type-asserts Recorder and BatchActuator on its plant, so both are
// forwarded; without them the journal or the actuation batching would
// differ from the plain run. Observe runs on several workers at once
// when the loop evaluates in parallel, so the counters are atomic.
type timedPlant struct {
	c *cluster.Cluster

	observeNs, observes               atomic.Int64
	actuateNs, actuations, actuateErr atomic.Int64
}

func (p *timedPlant) Apps() []string { return p.c.Apps() }

func (p *timedPlant) Observe(app string) (control.Observation, error) {
	t0 := time.Now()
	o, err := p.c.Observe(app)
	p.observeNs.Add(time.Since(t0).Nanoseconds())
	p.observes.Add(1)
	return o, err
}

func (p *timedPlant) ApplyDecision(app string, d control.Decision) error {
	t0 := time.Now()
	err := p.c.ApplyDecision(app, d)
	p.actuateNs.Add(time.Since(t0).Nanoseconds())
	p.actuations.Add(1)
	if err != nil {
		p.actuateErr.Add(1)
	}
	return err
}

func (p *timedPlant) RecordEvent(kind, object, message string) {
	p.c.RecordEvent(kind, object, message)
}

func (p *timedPlant) BeginActuationBatch() { p.c.BeginActuationBatch() }
func (p *timedPlant) EndActuationBatch()   { p.c.EndActuationBatch() }

// decideCounters are shared by every timedController of one world.
type decideCounters struct {
	ns, decisions, changes atomic.Int64
}

// timedController wraps one policy controller, timing Decide and
// counting decisions that resized or rescaled. The loop and the tracer
// type-assert Explainer, Traceable and StateSaver on it, so all three
// are forwarded.
type timedController struct {
	inner control.Controller
	ex    control.Explainer
	tr    control.Traceable
	ss    control.StateSaver
	k     *decideCounters
}

func wrapController(inner control.Controller, k *decideCounters) (*timedController, error) {
	ex, ok1 := inner.(control.Explainer)
	tr, ok2 := inner.(control.Traceable)
	ss, ok3 := inner.(control.StateSaver)
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("controller %s lacks an optional interface the wrapper forwards", inner.Name())
	}
	return &timedController{inner: inner, ex: ex, tr: tr, ss: ss, k: k}, nil
}

func (c *timedController) Name() string { return c.inner.Name() }

func (c *timedController) Decide(o control.Observation) control.Decision {
	t0 := time.Now()
	d := c.inner.Decide(o)
	c.k.ns.Add(time.Since(t0).Nanoseconds())
	c.k.decisions.Add(1)
	if d.Replicas != o.Replicas || d.Alloc != o.Alloc {
		c.k.changes.Add(1)
	}
	return d
}

func (c *timedController) Rationale() string               { return c.ex.Rationale() }
func (c *timedController) DecisionTrace() obs.ControlTrace { return c.tr.DecisionTrace() }
func (c *timedController) CkptSave(w *ckpt.Writer)         { c.ss.CkptSave(w) }
func (c *timedController) CkptLoad(r *ckpt.Reader) error   { return c.ss.CkptLoad(r) }

// layeredWorld is the rebuilt world and the hooks the run reads.
type layeredWorld struct {
	spec   Spec
	eng    *sim.Engine
	c      *cluster.Cluster
	runner *batch.Runner
	queue  *hpc.Queue
	loop   *control.Loop
	tracer *obs.Tracer
	plant  *timedPlant
	decide decideCounters
	runErr error

	timing *control.CtrlTiming
	phases *perf.PhaseBreakdown

	ckptBuf countingWriter
}

// buildLayered mirrors the facade's construction with the wrappers in
// place. Options take the facade's defaults.
func buildLayered(spec Spec, events, spans io.Writer) (*layeredWorld, error) {
	o := spec.Opts
	shape, err := resource.ParseVector("cpu=16 memory=64Gi diskio=1G netio=2G")
	if err != nil {
		return nil, err
	}
	w := &layeredWorld{spec: spec, tracer: obs.Nop()}
	w.eng = sim.NewEngine(o.Seed)
	ccfg := cluster.DefaultConfig()
	ccfg.ScoreWorkers = o.ScoreWorkers
	ccfg.Shards = o.Shards
	ccfg.ShardWorkers = o.ShardWorkers
	ccfg.DrainWorkers = o.CtrlWorkers
	w.c = cluster.New(w.eng, ccfg)
	if err := w.c.AddNodes("node", o.Nodes, shape); err != nil {
		return nil, err
	}
	if o.Chaos != "" {
		plan, err := chaos.Parse(o.Chaos)
		if err != nil {
			return nil, err
		}
		inj := chaos.NewInjector(plan, o.Seed)
		if len(inj.CtrlCrashes()) > 0 {
			return nil, fmt.Errorf("ctrl-crash faults need the facade's restart path, which the layer-timed run does not rebuild")
		}
		w.c.SetChaos(inj)
		inj.Arm(w.eng, w.c)
	}
	w.runner = batch.NewRunner(w.c)
	factory := core.Factory(core.DefaultConfig())
	w.plant = &timedPlant{c: w.c}
	w.loop = control.NewLoop(w.eng, w.plant, control.LoopConfig{Interval: stepDur, Seed: o.Seed, Workers: o.CtrlWorkers})
	w.loop.OnFatal(func(err error) {
		if w.runErr == nil {
			w.runErr = err
		}
	})
	w.queue = hpc.NewQueue(w.c, hpc.Backfill)

	for _, svc := range spec.Services {
		spec := workload.Service(archetypeOf(svc.Archetype), svc.Name, svc.BaseRate, svc.Replicas)
		spec.StartupDelay = svc.StartupDelay
		if err := w.c.CreateService(spec); err != nil {
			return nil, err
		}
		ctrl, err := wrapController(factory(svc.Name), &w.decide)
		if err != nil {
			return nil, err
		}
		w.loop.Add(svc.Name, ctrl)
		if err := w.c.SetLoadFunc(svc.Name, svc.Load.Func()); err != nil {
			return nil, err
		}
	}
	for _, j := range spec.Batch {
		job := batch.TeraSortLike(j.Name, j.Scale, 0)
		w.eng.TagNext("batch-submit", j.Name)
		w.eng.At(j.SubmitAt, func() {
			if err := w.runner.Submit(job); err != nil && w.runErr == nil {
				w.runErr = err
			}
		})
	}
	for _, j := range spec.HPC {
		job := hpc.JobSpec{
			Name:    j.Name,
			Ranks:   j.Ranks,
			PerRank: resource.New(7000, 16<<30, 50e6, 200e6),
			Model:   perf.TaskModel{Work: resource.New(420000, 0, 5e9, 2e9), MemSet: 8 << 30},
		}
		w.eng.TagNext("hpc-submit", j.Name)
		w.eng.At(j.SubmitAt, func() {
			if err := w.queue.Submit(job); err != nil && w.runErr == nil {
				w.runErr = err
			}
		})
	}
	if spec.Trace {
		w.tracer = obs.New(0)
		w.tracer.SetSink(events)
		w.tracer.SetSpanSink(spans)
		w.c.SetTracer(w.tracer)
	}
	w.loop.SetTracer(w.tracer)
	w.phases = w.c.EnablePhaseTiming()
	w.timing = w.loop.EnableTiming()
	w.c.Start()
	w.loop.Start()
	return w, nil
}

func archetypeOf(name string) workload.Archetype {
	switch name {
	case "gateway":
		return workload.Gateway
	case "kvstore":
		return workload.KVStore
	case "inference":
		return workload.Inference
	}
	return workload.Web
}

// step mirrors world.step: one control period, then the same scrape and
// checkpoint the plain run makes, through the layers' exports. The
// plain run times those two; here only the step is timed.
func (w *layeredWorld) step(t *tally) (time.Duration, bool) {
	t0 := time.Now()
	w.c.Run(w.eng.Now() + stepDur)
	d := time.Since(t0)
	if !t.call("Run", w.runErr) {
		return d, false
	}
	if w.spec.Scrape && !t.call("WriteMetrics", obs.WriteMetrics(io.Discard, w.c.Metrics(), w.tracer)) {
		return d, false
	}
	if w.spec.CkptEvery > 0 && w.eng.Now()%w.spec.CkptEvery == 0 && !t.call("checkpoint", w.checkpoint(&w.ckptBuf)) {
		return d, false
	}
	return d, true
}

// checkpoint encodes the world section by section as the facade's
// Checkpoint does, so the layer-timed run carries the same checkpoint
// cost between steps as the plain run.
func (w *layeredWorld) checkpoint(out io.Writer) error {
	timers, err := w.eng.PendingTimers()
	if err != nil {
		return err
	}
	co := w.c.Coordinator()
	cw := ckpt.NewWriter(out)
	cw.Begin("evolve")
	cw.I64(w.spec.Opts.Seed)
	cw.Str("evolve")
	cw.Dur(w.eng.Now())
	cw.U64(w.eng.Seq())
	cw.U64(w.eng.Steps())
	cw.U64(w.eng.RNG().Draws())
	cw.Int(len(timers))
	for _, tm := range timers {
		cw.Dur(tm.At)
		cw.U64(tm.Seq)
		cw.Str(tm.Tag.Kind)
		cw.Str(tm.Tag.Arg)
	}
	cw.Bool(co != nil)
	if co != nil {
		st, err := co.State()
		if err != nil {
			return err
		}
		cw.U64(st.Rounds)
		cw.U64(st.ParRounds)
		cw.U64(st.RoundsMark)
		cw.U64(st.ParMark)
		cw.Int(len(st.Shards))
		for _, s := range st.Shards {
			cw.Dur(s.Now)
			cw.U64(s.Seq)
			cw.U64(s.Nsteps)
		}
	}
	w.runner.CkptSave(cw)
	w.queue.CkptSave(cw)
	w.c.CkptSave(cw)
	w.loop.CkptSave(cw)
	inj := w.c.Chaos()
	cw.Bool(inj != nil)
	if inj != nil {
		inj.CkptSave(cw)
	}
	cw.Bool(w.tracer.Enabled())
	if w.tracer.Enabled() {
		w.tracer.CkptSave(cw)
	}
	cw.Bytes(nil)
	return cw.Close()
}

// report computes what evolve.Cluster.Report does, from the layers.
func (w *layeredWorld) report() evolve.Report {
	met := w.c.Metrics()
	now := w.eng.Now()
	r := evolve.Report{Elapsed: now}
	names := w.c.Apps()
	sort.Strings(names)
	for _, name := range names {
		tr, err := w.c.Tracker(name)
		if err != nil {
			continue
		}
		app, err := w.c.App(name)
		if err != nil {
			continue
		}
		r.Services = append(r.Services, evolve.ServiceReport{
			Name:              name,
			Objective:         tr.PLO().String(),
			ViolationFraction: tr.ViolationFraction(),
			MeanSLI:           met.Series("app/" + name + "/sli").AllStats().Mean,
			Replicas:          app.DesiredReplicas,
			AllocPerReplica:   app.Alloc.String(),
			BurnRate:          tr.Burn().BurnRate(),
		})
	}
	r.ClusterCPUAllocated = met.Series("cluster/allocated/cpu").TimeWeightedMean(0, now)
	r.ClusterCPUUsed = met.Series("cluster/usage/cpu").TimeWeightedMean(0, now)
	r.BatchJobsCompleted = met.Counter("batch/jobs-completed").Value()
	r.HPCJobsCompleted = met.Counter("hpc/jobs-completed").Value()
	r.HPCMeanWait, _, _ = w.queue.Stats()
	r.Preemptions = met.Counter("sched/preemptions").Value()
	ls := w.loop.Stats()
	r.DegradedPeriods = ls.DegradedPeriods
	r.ActuationRetries = ls.Retries
	r.Abandoned = ls.Abandoned
	if w.tracer.Enabled() {
		r.TraceEvents = w.tracer.Events()
		r.TraceDropped = w.tracer.Dropped()
		r.TraceSpans = w.tracer.Spans()
		r.TraceSpansDropped = w.tracer.SpansDropped()
		if err := w.tracer.SinkErr(); err != nil {
			r.TraceSinkError = err.Error()
		} else if err := w.tracer.SpanSinkErr(); err != nil {
			r.TraceSinkError = err.Error()
		}
	}
	return r
}

func (w *layeredWorld) events() []evolve.EventRecord {
	evs := w.c.Events()
	out := make([]evolve.EventRecord, len(evs))
	for i, e := range evs {
		out[i] = evolve.EventRecord{At: e.At, Kind: e.Kind, Object: e.Object, Message: e.Message}
	}
	return out
}

// counters is a snapshot of every layer counter the run reads; the
// window's figures are differences of two snapshots.
type counters struct {
	observeNs, observes, actuateNs, actuations, actuateErr int64
	decideNs, decisions, changes                           int64
	loop                                                   control.LoopStats
	periods                                                uint64
	evalNs, applyNs                                        int64
	calls, probed, pruned, preempts, binds                 uint64
	phase                                                  [perf.NumPhases]int64   // serial totals
	shardRows                                              [][perf.NumPhases]int64 // parallel phases per shard
	shardPhase                                             [perf.NumPhases]int64   // window deltas: max over shards
	events, rounds                                         uint64
}

func (w *layeredWorld) snapshot() counters {
	var k counters
	k.observeNs, k.observes = w.plant.observeNs.Load(), w.plant.observes.Load()
	k.actuateNs, k.actuations, k.actuateErr = w.plant.actuateNs.Load(), w.plant.actuations.Load(), w.plant.actuateErr.Load()
	k.decideNs, k.decisions, k.changes = w.decide.ns.Load(), w.decide.decisions.Load(), w.decide.changes.Load()
	k.loop = w.loop.Stats()
	k.periods, k.evalNs, k.applyNs = w.timing.Periods, w.timing.EvalNs, w.timing.ApplyNs
	ss := w.c.Scheduler().Stats()
	k.calls, k.probed, k.pruned, k.preempts = ss.Calls, ss.Probed, ss.Pruned, ss.Preempts
	k.binds = w.c.Metrics().Counter("sched/binds").Value()
	k.phase = w.phases.TotalNs
	k.shardRows = append(k.shardRows, w.phases.ShardNs...)
	k.events = w.eng.Steps()
	if co := w.c.Coordinator(); co != nil {
		for _, s := range co.ShardSteps(nil) {
			k.events += s
		}
		k.rounds, _ = co.Rounds()
	}
	return k
}

// layeredResult is what the layer-timed run measured over its window.
type layeredResult struct {
	steps   int
	stepNs  []int64
	vsec    float64
	d       counters // window deltas
	outcome string
}

// runLayered builds and warms the layer-timed world, then runs one
// episode with its counters running. Traced workloads
// write their sinks to files in dir, as the plain run does.
func runLayered(spec Spec, dir string, t *tally) (*layeredResult, bool) {
	var ev, sp io.Writer = io.Discard, io.Discard
	if spec.Trace {
		evs, err := newSink(dir, "layered-events.jsonl")
		if !t.call("create sink", err) {
			return nil, false
		}
		defer evs.close()
		sps, err := newSink(dir, "layered-spans.jsonl")
		if !t.call("create sink", err) {
			return nil, false
		}
		defer sps.close()
		ev, sp = evs, sps
	}
	w, err := buildLayered(spec, ev, sp)
	if !t.call("build layers", err) {
		return nil, false
	}
	for s := 0; s < spec.WarmupSteps; s++ {
		if _, ok := w.step(t); !ok {
			return nil, false
		}
	}
	r := &layeredResult{}
	runtime.GC() // as before the plain window, so both start from a collected heap
	k0 := w.snapshot()
	v0 := w.eng.Now()
	for s := 0; s < spec.EpisodeSteps; s++ {
		d, ok := w.step(t)
		if !ok {
			return nil, false
		}
		r.stepNs = append(r.stepNs, d.Nanoseconds())
	}
	r.steps = spec.EpisodeSteps
	r.vsec = (w.eng.Now() - v0).Seconds()
	r.d = w.snapshot().sub(k0)
	r.outcome = outcome(withoutSpanCounts(w.report()), w.events())
	return r, true
}

func (k counters) sub(o counters) counters {
	d := counters{
		observeNs: k.observeNs - o.observeNs, observes: k.observes - o.observes,
		actuateNs: k.actuateNs - o.actuateNs, actuations: k.actuations - o.actuations, actuateErr: k.actuateErr - o.actuateErr,
		decideNs: k.decideNs - o.decideNs, decisions: k.decisions - o.decisions, changes: k.changes - o.changes,
		periods: k.periods - o.periods, evalNs: k.evalNs - o.evalNs, applyNs: k.applyNs - o.applyNs,
		calls: k.calls - o.calls, probed: k.probed - o.probed, pruned: k.pruned - o.pruned,
		preempts: k.preempts - o.preempts, binds: k.binds - o.binds,
		events: k.events - o.events, rounds: k.rounds - o.rounds,
	}
	d.loop = control.LoopStats{
		Decisions:       k.loop.Decisions - o.loop.Decisions,
		DegradedPeriods: k.loop.DegradedPeriods - o.loop.DegradedPeriods,
		Retries:         k.loop.Retries - o.loop.Retries,
		Abandoned:       k.loop.Abandoned - o.loop.Abandoned,
	}
	for p := range d.phase {
		d.phase[p] = k.phase[p] - o.phase[p]
		// A parallel phase's critical path: the busiest shard's share.
		for s := range k.shardRows {
			if ns := k.shardRows[s][p] - o.shardRows[s][p]; ns > d.shardPhase[p] {
				d.shardPhase[p] = ns
			}
		}
	}
	return d
}
