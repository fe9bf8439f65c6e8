package cluster

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"evolve/internal/control"
	"evolve/internal/obs"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/registry"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/sim"
)

// drainService builds a service whose replicas request the given
// allocation — the knob that polarizes its candidate prefix.
func drainService(name string, replicas int, alloc resource.Vector) ServiceSpec {
	return ServiceSpec{
		Name: name,
		Model: perf.ServiceModel{
			BaseLatency:      2 * time.Millisecond,
			DemandPerOp:      resource.New(10, 0, 20e3, 50e3),
			MemFixed:         64 << 20,
			MemPerConcurrent: 4 << 20,
			MaxLatency:       30 * time.Second,
		},
		PLO:             plo.Latency(100 * time.Millisecond),
		InitialReplicas: replicas,
		InitialAlloc:    alloc,
		MaxReplicas:     replicas + 2,
		Priority:        100,
	}
}

// drainPlacements stands up a polarized topology — CPU-rich/memory-poor
// nodes next to memory-rich/CPU-poor ones — and interleaves CPU-bound
// and memory-bound services so the pending queue alternates flavors
// with disjoint candidate prefixes. It drains under the given worker
// count and returns every pod's placement plus the batch call count.
func drainPlacements(t *testing.T, workers int) (string, uint64) {
	t.Helper()
	eng := sim.NewEngine(17)
	cfg := DefaultConfig()
	cfg.MeasurementNoise = 0
	cfg.DrainWorkers = workers
	c := New(eng, cfg)
	for i := 0; i < 6; i++ {
		if err := c.AddNode(fmt.Sprintf("cpu-%02d", i), resource.New(64000, 8<<30, 1e9, 2e9)); err != nil {
			t.Fatal(err)
		}
		if err := c.AddNode(fmt.Sprintf("mem-%02d", i), resource.New(2000, 256<<30, 1e9, 2e9)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4; i++ {
		if err := c.CreateService(drainService(fmt.Sprintf("cpu-svc-%d", i), 2,
			resource.New(16000, 1<<30, 1e6, 1e6))); err != nil {
			t.Fatal(err)
		}
		if err := c.CreateService(drainService(fmt.Sprintf("mem-svc-%d", i), 2,
			resource.New(500, 64<<30, 1e6, 1e6))); err != nil {
			t.Fatal(err)
		}
	}
	c.SchedulePendingNow()
	var b strings.Builder
	for _, p := range c.Pods() {
		fmt.Fprintf(&b, "%s->%s;", p.Meta.Name, p.Node)
	}
	fmt.Fprintf(&b, "pending=%d", len(c.PendingPods()))
	return b.String(), c.Scheduler().Stats().BatchCalls
}

// TestDrainBatchedMatchesSerial: the batched backlog drain must place
// every pod exactly where the serial loop places it, and must actually
// engage (BatchCalls > 0) on the polarized workload built for it.
func TestDrainBatchedMatchesSerial(t *testing.T) {
	want, serialBatches := drainPlacements(t, 1)
	if serialBatches != 0 {
		t.Errorf("serial drain made %d batch calls, want 0", serialBatches)
	}
	if !strings.Contains(want, "pending=0") {
		t.Fatalf("serial drain left pods pending: %s", want)
	}
	for _, workers := range []int{2, 4} {
		got, batches := drainPlacements(t, workers)
		if got != want {
			t.Errorf("workers=%d: placements diverged\n got: %s\nwant: %s", workers, got, want)
		}
		if batches == 0 {
			t.Errorf("workers=%d: batch drain never engaged on the polarized queue", workers)
		}
	}
}

// referenceDrain is the pending drain as a plain per-pod loop, kept as
// the oracle for the real one: every queued pod runs ScheduleOn, which
// always builds the full Unschedulable error, and every rejected pod
// that may preempt runs Preempt. No failed shape is remembered and no
// placement is batched.
func (c *Cluster) referenceDrain() {
	if len(c.pending) == 0 {
		return
	}
	queue := append([]*PodObject(nil), c.pending...)
	c.refreshSnapshot()
	for _, p := range queue {
		info := sched.PodInfo{Name: p.Name, App: p.App, Requests: p.Requests, Priority: p.Priority, NodeSelector: p.NodeSelector}
		nodeName, err := c.sch.ScheduleOn(info, c.snap)
		if err == nil {
			if berr := c.bind(p, nodeName); berr != nil {
				c.bindFault(p, nodeName, berr)
				c.refreshSnapshot()
				continue
			}
			c.snap.Commit(nodeName, info)
			continue
		}
		c.met.Counter("sched/unschedulable").Inc()
		if c.tracer.Enabled() {
			c.tracer.Record(obs.Event{
				At: c.now(), Kind: obs.KindSched, Verb: obs.VerbReject,
				App: p.App, Object: p.Name, Detail: err.Error(), Alloc: p.Requests,
			})
		}
		if p.Priority <= 0 {
			continue
		}
		plan := c.sch.Preempt(info, c.snap.Nodes())
		if plan == nil {
			continue
		}
		for _, victim := range plan.Victims {
			if vp, ok := c.pods[victim]; ok {
				c.evict(vp, "preempted")
			}
		}
		c.met.Counter("sched/preemptions").Inc()
		c.recordEvent("preemption", p.Name, "evicted %v on %s", plan.Victims, plan.Node)
		if c.tracer.Enabled() {
			c.tracer.Record(obs.Event{
				At: c.now(), Kind: obs.KindSched, Verb: obs.VerbPreempt,
				App: p.App, Object: p.Name, Node: plan.Node,
				Detail: fmt.Sprintf("victims %v", plan.Victims),
			})
		}
		if berr := c.bind(p, plan.Node); berr != nil {
			c.bindFault(p, plan.Node, berr)
		}
		c.refreshSnapshot()
	}
}

// drainOracleRun builds one randomized backlog from seed and drives it
// through several drain rounds, with the real drain (DrainWorkers =
// workers) or referenceDrain, and renders everything observable: every
// pod's phase, node and requests, every counter, the journal and, when
// traced, the event stream with its reject diagnoses.
//
// The world mixes what the failure memo must survive: two labeled pools
// and selector-confined pods, services at several priorities (so
// preemption fires), batch jobs whose tasks differ in selector or
// requests, rigid jobs whose eviction tears down their other tasks
// (freeing room on other nodes mid-round, as the HPC queue does),
// pending replicas resized between rounds, and a node that dies behind
// the snapshot's back so a later bind fails.
func drainOracleRun(t *testing.T, seed int64, workers int, traced, reference bool) (string, sched.Stats) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	eng := sim.NewEngine(seed)
	cfg := DefaultConfig()
	cfg.MeasurementNoise = 0
	cfg.DrainWorkers = workers
	c := New(eng, cfg)
	var trace bytes.Buffer
	if traced {
		tr := obs.New(1 << 16)
		tr.SetSink(&trace)
		c.SetTracer(tr)
	}
	pools := []map[string]string{{"pool": "a"}, {"pool": "b"}}
	nodes := 3 + rng.Intn(5)
	for i := 0; i < nodes; i++ {
		cpu := float64(8000 * (1 + rng.Intn(3)))
		mem := float64(int64(16<<30) * int64(1+rng.Intn(3)))
		if err := c.AddLabeledNode(fmt.Sprintf("n-%d", i), resource.New(cpu, mem, 1e9, 2e9), pools[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	// A small palette makes shapes repeat across pods, which is what the
	// memo keys on.
	palette := []resource.Vector{
		resource.New(2000, 4<<30, 10e6, 10e6),
		resource.New(4000, 8<<30, 10e6, 10e6),
		resource.New(6000, 4<<30, 10e6, 10e6),
		resource.New(3000, 20<<30, 10e6, 10e6),
	}
	selector := func() map[string]string {
		switch rng.Intn(4) {
		case 0:
			return pools[0]
		case 1:
			return pools[1]
		}
		return nil
	}
	priorities := []int{0, 10, 50, 100}
	var services []string
	for i, n := 0, 2+rng.Intn(4); i < n; i++ {
		spec := testService(fmt.Sprintf("svc-%d", i))
		spec.InitialReplicas = 1 + rng.Intn(6)
		spec.InitialAlloc = palette[rng.Intn(len(palette))]
		spec.MinAlloc = resource.New(100, 128<<20, 1e6, 1e6)
		spec.MaxAlloc = resource.New(16000, 64<<30, 1e9, 1e9)
		spec.Priority = priorities[rng.Intn(len(priorities))]
		spec.NodeSelector = selector()
		if err := c.CreateService(spec); err != nil {
			t.Fatal(err)
		}
		services = append(services, spec.Name)
	}
	// A node dies behind the snapshot's back right after the k-th bind:
	// the snapshot still offers it, so a later bind to it fails.
	if rng.Intn(2) == 0 {
		victim := c.nodeList[rng.Intn(nodes)]
		k := 1 + rng.Intn(12)
		c.store.Watch(KindPod, func(ev registry.Event) {
			if p, ok := ev.Object.(*PodObject); ok && ev.Type == registry.Modified && p.Phase == Running {
				if k--; k == 0 {
					victim.Ready = false
				}
			}
		})
	}
	job := 0
	submitJob := func() {
		name := fmt.Sprintf("job-%d", job)
		job++
		rigid := rng.Intn(2) == 0
		var tasks []string
		tornDown := false
		for i, n := 0, 2+rng.Intn(5); i < n; i++ {
			spec := testTask(fmt.Sprintf("%s-t%d", name, i), 0, float64(20000*(1+rng.Intn(10))))
			spec.Job = name
			spec.Requests = palette[rng.Intn(len(palette))]
			spec.Priority = priorities[rng.Intn(3)] // below the top service tier
			spec.NodeSelector = selector()
			if rigid {
				spec.OnDone = func(_ string, failed bool) {
					if !failed || tornDown {
						return
					}
					tornDown = true
					for _, other := range tasks {
						_ = c.KillTask(other) // already gone is fine
					}
				}
			}
			if err := c.SubmitTask(spec); err != nil {
				t.Fatal(err)
			}
			tasks = append(tasks, spec.Name)
		}
	}
	for i, n := 0, 1+rng.Intn(3); i < n; i++ {
		submitJob()
	}
	var out strings.Builder
	for round := 0; round < 5; round++ {
		drainRound(c, reference)
		fmt.Fprintf(&out, "round %d\n", round)
		renderPods(&out, c)
		// Between rounds: tasks finish, a service is rescaled (its
		// pending replicas take the new size) and more work arrives.
		eng.Run(eng.Now() + time.Duration(5+rng.Intn(40))*time.Second)
		d := control.Decision{Replicas: 1 + rng.Intn(8), Alloc: palette[rng.Intn(len(palette))]}
		if err := c.ApplyDecision(services[rng.Intn(len(services))], d); err != nil {
			t.Fatal(err)
		}
		if rng.Intn(2) == 0 {
			submitJob()
		}
	}
	renderObservables(t, &out, c, &trace)
	return out.String(), c.sch.Stats()
}

// drainRound runs one pending drain: the real one or referenceDrain.
func drainRound(c *Cluster, reference bool) {
	if reference {
		c.referenceDrain()
	} else {
		c.SchedulePendingNow()
	}
}

// renderPods writes every pod's phase, node and requests.
func renderPods(out *strings.Builder, c *Cluster) {
	for _, p := range c.byName {
		fmt.Fprintf(out, "%s %s %s %v\n", p.Name, p.Phase, p.Node, p.Requests)
	}
}

// renderObservables writes every counter, the journal and the trace,
// rendered as JSONL.
func renderObservables(t *testing.T, out *strings.Builder, c *Cluster, trace *bytes.Buffer) {
	t.Helper()
	names := c.met.CounterNames()
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(out, "counter %s %d\n", n, c.met.Counter(n).Value())
	}
	for _, e := range c.Events() {
		fmt.Fprintf(out, "event %d %s %s %s\n", e.At, e.Kind, e.Object, e.Message)
	}
	if err := obs.RenderJSONL(out, trace); err != nil {
		t.Fatalf("rendering the trace stream: %v", err)
	}
}

// TestDrainMatchesReference is the drain's randomized oracle: on
// generated backlogs the real drain — failed shapes settled once per
// snapshot, diagnoses built only when traced, placements batched at 4
// workers — must leave every pod, counter, journal line and trace event
// exactly where the plain per-pod reference loop leaves them.
func TestDrainMatchesReference(t *testing.T) {
	t.Run("rebuild", drainRebuildCase)
	seeds := 100
	if testing.Short() {
		seeds = 20
	}
	var rejects, preempts, faults, refCalls, calls uint64
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, traced := range []bool{false, true} {
			want, ref := drainOracleRun(t, seed, 1, traced, true)
			for _, workers := range []int{1, 4} {
				got, st := drainOracleRun(t, seed, workers, traced, false)
				if got != want {
					t.Fatalf("seed %d workers %d traced %v: drain diverged from the reference\n%s",
						seed, workers, traced, firstDiff(got, want))
				}
				if workers == 1 {
					refCalls += ref.Calls
					calls += st.Calls
				}
			}
			rejects += uint64(strings.Count(want, "\ncounter sched/unschedulable "))
			preempts += uint64(strings.Count(want, "\ncounter sched/preemptions "))
			faults += uint64(strings.Count(want, "\ncounter faults/bind "))
		}
	}
	// The backlogs must reach every path the memo could get wrong.
	if rejects == 0 || preempts == 0 || faults == 0 || calls >= refCalls {
		t.Errorf("weak backlogs: %d runs with rejects, %d with preemptions, %d with bind faults; "+
			"%d placement calls vs %d in the reference", rejects, preempts, faults, calls, refCalls)
	}
	t.Logf("runs with rejects %d, preemptions %d, bind faults %d; placement calls %d (reference %d)",
		rejects, preempts, faults, calls, refCalls)
}

// firstDiff renders the first line where got and want differ.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d\n got: %s\nwant: %s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("lengths differ: got %d lines, want %d", len(g), len(w))
}

// drainRebuildCase is the oracle's directed backlog: it pins why a
// preemption rebuild must clear the failed shapes. Replica a-2 fits
// nowhere, not even by preemption: its only lower-priority candidate is
// task lo. Replica b-3 then preempts lo, and lo's eviction tears down
// its job, whose higher-priority task hi held all of the other node.
// The identical replica a-4, later in the same round, now fits there.
// Random backlogs rarely line this up.
func drainRebuildCase(t *testing.T) {
	run := func(reference bool) string {
		eng := sim.NewEngine(1)
		cfg := DefaultConfig()
		cfg.MeasurementNoise = 0
		c := New(eng, cfg)
		var trace bytes.Buffer
		tr := obs.New(1 << 12)
		tr.SetSink(&trace)
		c.SetTracer(tr)
		if err := c.AddNodes("n", 2, resource.New(8000, 64<<30, 1e9, 2e9)); err != nil {
			t.Fatal(err)
		}
		full := c.nodeList[0].Allocatable[resource.CPU] // after the system reserve
		teardown := func(_ string, failed bool) {
			if failed {
				_ = c.KillTask("hi")
			}
		}
		hi := testTask("hi", full, 1e12)
		hi.Priority = 60
		lo := testTask("lo", full-2000, 1e12)
		lo.OnDone = teardown
		for _, spec := range []TaskSpec{hi, lo} {
			if err := c.SubmitTask(spec); err != nil {
				t.Fatal(err)
			}
		}
		service := func(name string, cpu float64) {
			spec := testService(name)
			spec.InitialReplicas = 1
			spec.InitialAlloc = resource.New(cpu, 1<<30, 10e6, 10e6)
			spec.Priority = 50
			if err := c.CreateService(spec); err != nil {
				t.Fatal(err)
			}
			eng.Run(eng.Now() + time.Second) // FIFO order within the priority
		}
		service("filler", 2000)
		drainRound(c, reference) // hi fills n-0; filler and lo fill n-1
		service("a", full)
		service("b", 4000)
		if err := c.ApplyDecision("a", control.Decision{Replicas: 2, Alloc: resource.New(full, 1<<30, 10e6, 10e6)}); err != nil {
			t.Fatal(err)
		}
		drainRound(c, reference)
		var out strings.Builder
		renderPods(&out, c)
		renderObservables(t, &out, c, &trace)
		return out.String()
	}
	want := run(true)
	if !strings.Contains(want, "preemption b-") || !strings.Contains(want, "pod-scheduled a-4 bound to n-0") {
		t.Fatalf("scenario did not preempt as designed:\n%s", want)
	}
	if got := run(false); got != want {
		t.Fatalf("drain diverged from the reference\n%s", firstDiff(got, want))
	}
}
