package cluster

import (
	"runtime"
	"sort"
	"time"

	"evolve/internal/chaos"
	"evolve/internal/obs"
	"evolve/internal/perf"
	"evolve/internal/plo"
	"evolve/internal/resource"
	"evolve/internal/sim"
)

// Sharded tick.
//
// The cluster's entities are partitioned onto cfg.Shards shard engines
// (one when Shards <= 1) by stable name hash — nodes and apps each land
// on one shard forever — and the tick decomposes into three phases
// fanned out as one event per shard at the current timestamp, driven to
// completion by sim.Coordinator.DrainShards between the serial
// sections:
//
//	P1 per-node:  interference slowdown from last tick's usage
//	P2 per-app:   load → perf model → telemetry windows and series
//	P3 per-node:  usage summation from the pods bound to the node
//
// Each phase only writes state its shard owns (its nodes' scratch
// fields, its apps' windows and metric instruments) plus per-app
// buffers; everything with a canonical global order — registry writes,
// trace events, fault counters, float totals — is staged and applied at
// the barrier in appList/nodeList name order. Phase reads of foreign
// state (an app reading the slowdown of a node on another shard, a node
// summing usage written by apps on other shards) always cross a phase
// barrier, never a concurrent write. That discipline, plus per-app
// keyed random streams (sim.PartitionedRNG), is why every shard count —
// and every worker count — replays byte-identically.

// shardState is one shard's partition of the cluster.
type shardState struct {
	c          *Cluster
	eng        *sim.Engine
	idx        int           // shard index, for phase-timing attribution
	apps       []*appState   // this shard's services, name order
	nodes      []*NodeObject // this shard's nodes, name order
	scratchRun []*PodObject  // per-shard running-replica scratch

	// Cached phase closures so the per-tick fan-out allocates nothing.
	p1, p2, p3 func()
}

// initShards builds the coordinator, the dense hot state and the
// (initially empty) shard partitions; indexAddNode/indexAddApp route
// entities to their shard as they are created. workers <= 0 defaults to
// GOMAXPROCS, since more workers than cores only adds scheduler
// pressure; either way it is capped at n, since more workers than
// shards can never run.
func (c *Cluster) initShards(n, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	c.co = sim.NewCoordinator(c.eng, n, workers)
	c.hot = &hotState{}
	c.shards = make([]*shardState, n)
	for i := range c.shards {
		sh := &shardState{c: c, eng: c.co.Shard(i), idx: i}
		sh.p1, sh.p2, sh.p3 = sh.phase1, sh.phase2, sh.phase3
		c.shards[i] = sh
	}
}

// shardOfApp and shardOfNode key the stable entity→shard mapping. The
// kind prefix keeps an app and a node that share a name on independent
// hashes.
func shardOfApp(name string, n int) int  { return sim.ShardOf("app/"+name, n) }
func shardOfNode(name string, n int) int { return sim.ShardOf("node/"+name, n) }

func (sh *shardState) addNode(n *NodeObject) {
	i := sort.Search(len(sh.nodes), func(j int) bool { return sh.nodes[j].Name > n.Name })
	sh.nodes = append(sh.nodes, nil)
	copy(sh.nodes[i+1:], sh.nodes[i:])
	sh.nodes[i] = n
}

func (sh *shardState) addApp(st *appState) {
	name := st.obj.Spec.Name
	i := sort.Search(len(sh.apps), func(j int) bool { return sh.apps[j].obj.Spec.Name > name })
	sh.apps = append(sh.apps, nil)
	copy(sh.apps[i+1:], sh.apps[i:])
	sh.apps[i] = st
}

// phase1 refreshes interference slowdowns for the shard's nodes,
// mirroring each into the dense slow array P2 gathers from.
func (sh *shardState) phase1() {
	c := sh.c
	var t0 time.Time
	if c.phases != nil {
		t0 = time.Now()
	}
	hot := c.hot
	for _, n := range sh.nodes {
		c.nodeSlowdown(n)
		hot.slow[n.slot] = n.slow
	}
	if c.phases != nil {
		c.phases.AddShard(sh.idx, perf.PhaseP1, time.Since(t0).Nanoseconds())
	}
}

// phase2 evaluates the shard's apps against their offered load — on the
// dense path (quiescent store) via the cached ready aggregates, else
// via the staging pointer walk.
func (sh *shardState) phase2() {
	c := sh.c
	var t0 time.Time
	if c.phases != nil {
		t0 = time.Now()
	}
	now := sh.eng.Now()
	if c.hot.fast {
		for _, st := range sh.apps {
			c.phaseAppFast(st, now)
		}
	} else {
		for _, st := range sh.apps {
			sh.scratchRun = c.phaseApp(st, now, sh.scratchRun)
		}
	}
	if c.phases != nil {
		c.phases.AddShard(sh.idx, perf.PhaseP2, time.Since(t0).Nanoseconds())
	}
}

// phase3 re-derives per-node usage from the pods bound to the shard's
// nodes.
func (sh *shardState) phase3() {
	c := sh.c
	var t0 time.Time
	if c.phases != nil {
		t0 = time.Now()
	}
	if c.hot.fast {
		now := sh.eng.Now()
		for _, n := range sh.nodes {
			c.phaseNodeUsageFast(n, now)
		}
	} else {
		for _, n := range sh.nodes {
			c.phaseNodeUsage(n)
		}
	}
	if c.phases != nil {
		c.phases.AddShard(sh.idx, perf.PhaseP3, time.Since(t0).Nanoseconds())
	}
}

// tickSharded is the body of the tick after schedulePending: fan each
// phase out as one event per shard at the current instant, drain to the
// barrier, apply the staged cross-shard effects in canonical order.
// Ordering note: the phases run to completion inside this call — before
// the tick event returns — so a control-loop event queued at the same
// timestamp (with a lower sequence number than the phase events) still
// observes a fully consistent cluster.
func (c *Cluster) tickSharded() {
	now := c.now()
	// The dense path requires a quiescent registry: nobody to notify,
	// nobody observing per-object versions. A tracer (or any watcher)
	// drops the tick back to the staging path, whose flush notifies in
	// canonical order; pod usage deferred by earlier dense ticks is
	// materialised first so the staging path (and the watchers) see
	// exactly the per-pod state a staged tick would have left.
	fast := c.store.Quiescent()
	if !fast {
		c.syncPodUsage()
	}
	c.hot.fast = fast

	pb := c.phases
	var tickT0 time.Time
	if pb != nil {
		tickT0 = time.Now() // whole-kernel wall time, for the tick-max tail
	}
	for _, sh := range c.shards {
		sh.eng.Post(now, sh.p1)
	}
	c.co.DrainShards(now)
	for _, sh := range c.shards {
		sh.eng.Post(now, sh.p2)
	}
	c.co.DrainShards(now)
	var t0 time.Time
	if pb != nil {
		t0 = time.Now()
	}
	if fast {
		c.flushAppsFast()
	} else {
		c.flushApps()
	}
	if pb != nil {
		pb.Add(perf.PhaseFlushApps, time.Since(t0).Nanoseconds())
	}
	for _, sh := range c.shards {
		sh.eng.Post(now, sh.p3)
	}
	c.co.DrainShards(now)
	if pb != nil {
		t0 = time.Now()
	}
	if fast {
		c.flushNodesFast(now)
	} else {
		c.flushNodes(now)
	}
	if fast {
		c.hot.usageStale = true
		c.hot.lastPhaseAt = now
	}
	if pb != nil {
		pb.Add(perf.PhaseFlushNodes, time.Since(t0).Nanoseconds())
		bar, mail := c.co.TakeTimings()
		pb.Add(perf.PhaseBarrier, bar)
		pb.Add(perf.PhaseMailbox, mail)
		pb.Ticks++
		pb.ObserveTick(time.Since(tickT0).Nanoseconds())
		if c.tracer.Enabled() {
			// Phase timing plus tracing is a bench/debug configuration;
			// lift this tick's per-phase deltas into instant spans.
			c.emitPhaseSpans(now, pb, c.co)
		}
	}
}

// phaseApp is one app's share of P2 on the staging path (a watched
// registry), with every globally ordered side effect staged on the
// appState instead of applied in-place: registry updates into updBuf,
// the PLO onset/clear trace event into traceEv, fault tallies into
// tickDrop/tickStale/chaosStats. flushApps applies them at the barrier
// in appList order, so the observable effect sequence does not depend
// on the shard count.
func (c *Cluster) phaseApp(st *appState, now time.Duration, scratch []*PodObject) []*PodObject {
	spec := st.obj.Spec
	lambda := st.loadFn(now)
	if lambda < 0 {
		lambda = 0
	}

	pods := c.byApp[spec.Name]
	running := scratch[:0]
	for _, p := range pods {
		if p.Phase == Running && p.ReadyAt <= now {
			running = append(running, p)
		}
	}

	var result perf.Result
	if len(running) == 0 {
		result = perf.Result{
			MeanLatency: spec.Model.MaxLatency,
			P99Latency:  spec.Model.MaxLatency,
			Throughput:  0,
			Saturated:   lambda > 0,
		}
		for _, p := range pods {
			if !p.Usage.IsZero() {
				p.Usage = resource.Vector{}
				st.updBuf = append(st.updBuf, p)
			}
		}
	} else {
		var alloc resource.Vector
		var slow float64
		for _, p := range running {
			alloc = alloc.Add(p.Requests)
			slow += c.nodes[p.Node].slow
		}
		alloc = alloc.Scale(1 / float64(len(running)))
		slow /= float64(len(running))
		result = spec.Model.Evaluate(lambda, len(running), alloc, slow)
		for _, p := range running {
			p.Usage = result.Usage
			st.updBuf = append(st.updBuf, p)
		}
	}

	c.phaseAppTail(st, now, lambda, len(running), result)
	return running
}

// phaseAppTail is the telemetry half of P2 — noise, chaos sampling,
// window appends, metric handles, PLO tracking — shared verbatim by the
// pointer-walking and dense paths so both produce identical observable
// numbers. ready is the serving replica count this tick.
func (c *Cluster) phaseAppTail(st *appState, now time.Duration, lambda float64, ready int, result perf.Result) {
	spec := st.obj.Spec
	noise := 1.0
	if c.cfg.MeasurementNoise > 0 {
		noise = st.noise.Jitter(1, c.cfg.MeasurementNoise)
	}
	meanLat := result.MeanLatency.Seconds() * noise
	p99Lat := result.P99Latency.Seconds() * noise
	throughput := result.Throughput * noise

	sli := meanLat
	switch spec.PLO.Metric {
	case plo.P99Latency:
		sli = p99Lat
	case plo.Throughput:
		sli = throughput
	}
	// The sample covers one metrics interval of service time. App-owned
	// state only, so the shard worker may write it without staging.
	st.tracker.ObserveFor(sli, c.cfg.MetricsInterval.Seconds())

	st.winTicks++
	s := sensedSample{sli: sli, mean: meanLat, p99: p99Lat, tput: throughput, offered: lambda, usage: result.Usage, util: result.Utilisation}
	deliver, stale := true, false
	if c.chaos != nil {
		switch v, factor := c.chaos.SampleWith(st.chaosRNG, &st.chaosStats, spec.Name, now, c); v {
		case chaos.SampleDrop:
			deliver = false
			st.tickDrop++
		case chaos.SampleFreeze:
			if st.haveSensed {
				s, stale = st.sensed, true
				st.tickStale++
			} else {
				deliver = false
				st.tickDrop++
			}
		default:
			if factor != 1 {
				s.sli *= factor
				s.mean *= factor
				s.p99 *= factor
				s.tput *= factor
			}
		}
	}
	if deliver {
		st.winSLI = append(st.winSLI, s.sli)
		st.winMean = append(st.winMean, s.mean)
		st.winP99 = append(st.winP99, s.p99)
		st.winThroughput = append(st.winThroughput, s.tput)
		st.winOffered = append(st.winOffered, s.offered)
		st.winUsage = append(st.winUsage, s.usage)
		st.winUtil = append(st.winUtil, s.util)
		if stale {
			st.winStale++
		} else {
			st.sensed, st.haveSensed = s, true
		}
	}
	if result.Saturated {
		st.winSaturated = true
	}

	h := st.handles(c.met)
	h.latMean.Add(now, meanLat)
	h.latP99.Add(now, p99Lat)
	h.throughput.Add(now, throughput)
	h.offered.Add(now, lambda)
	h.replicas.Add(now, float64(st.obj.DesiredReplicas))
	h.ready.Add(now, float64(ready))
	for _, k := range resource.Kinds() {
		h.alloc[k].Add(now, st.obj.Alloc[k])
		h.usage[k].Add(now, result.Usage[k])
	}
	violated := 0.0
	if st.tracker.PLO().Violated(sli) {
		st.violationsCounter(c.met).Inc()
		violated = 1
	}
	if isViolated := violated == 1; isViolated != st.wasViolated {
		st.wasViolated = isViolated
		if c.tracer.Enabled() {
			verb := obs.VerbClear
			if isViolated {
				verb = obs.VerbOnset
			}
			st.traceEv = obs.Event{
				At: now, Kind: obs.KindPLO, Verb: verb, App: spec.Name,
				SLI: sli, Objective: spec.PLO.Target, PerfErr: spec.PLO.Error(sli),
			}
			st.traceSet = true
		}
	}
	h.sli.Add(now, sli)
	h.violation.Add(now, violated)
	h.burnRate.Add(now, st.tracker.Burn().BurnRate())
	if sli > 0 {
		st.histogram(c.met).Observe(sli)
	}
}

// flushApps applies P2's staged side effects at the barrier, walking
// appList in name order, so registry version numbers, trace events and
// fault tallies come out identical at every shard count. PLO trace
// events are collected in that walk and recorded in one batch at the
// end: the registry updates between them emit no trace events of their
// own (the watch mirror skips Modified), so the recorded sequence
// matches a per-app interleaving.
func (c *Cluster) flushApps() {
	chaosOn := c.chaos != nil
	c.traceBuf = c.traceBuf[:0]
	for _, st := range c.appList {
		if len(st.updBuf) > 0 {
			c.applyUpdates(st.updBuf)
			st.updBuf = st.updBuf[:0]
		}
		if st.traceSet {
			c.traceBuf = append(c.traceBuf, st.traceEv)
			st.traceSet = false
		}
		c.lastTick.SamplesDropped += st.tickDrop
		c.lastTick.SamplesStale += st.tickStale
		st.tickDrop, st.tickStale = 0, 0
		if chaosOn {
			c.chaos.Absorb(st.chaosStats)
			st.chaosStats = chaos.Stats{}
		}
	}
	if len(c.traceBuf) > 0 {
		c.tracer.RecordBatch(c.traceBuf)
		c.traceBuf = c.traceBuf[:0]
	}
}

// flushNodes commits P3's results serially: node registry updates in
// nodeList order (one batch, same version trajectory as per-node
// updates) and the float totals for the cluster series, accumulated in
// nodeList order so the sums are bit-identical at every shard count.
func (c *Cluster) flushNodes(now time.Duration) {
	var capTotal, allocTotal, usageTotal resource.Vector
	emptyNodes := 0
	c.nodeUpd = c.nodeUpd[:0]
	for _, n := range c.nodeList {
		c.nodeUpd = append(c.nodeUpd, n)
		if !n.Ready {
			continue
		}
		if n.running == 0 {
			emptyNodes++
		}
		capTotal = capTotal.Add(n.Allocatable)
		allocTotal = allocTotal.Add(n.Allocated)
		usageTotal = usageTotal.Add(n.Usage)
	}
	c.applyUpdates(c.nodeUpd)
	allocFrac := allocTotal.Div(capTotal)
	usageFrac := usageTotal.Div(capTotal)
	ch := c.clusterSeries()
	for _, k := range resource.Kinds() {
		ch.allocated[k].Add(now, allocFrac[k])
		ch.usage[k].Add(now, usageFrac[k])
	}
	ch.pods.Add(now, float64(len(c.pods)))
	ch.pending.Add(now, float64(len(c.pending)))
	ch.emptyNodes.Add(now, float64(emptyNodes))
}
