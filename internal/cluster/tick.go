package cluster

import (
	"time"

	"evolve/internal/perf"
	"evolve/internal/resource"
)

// tick is the cluster's heartbeat: place pending pods, evaluate every
// service against its offered load, refresh usage accounting and record
// the telemetry the controllers and experiments consume.
//
// This is the hot path of every simulation. After the scheduling drain
// the work fans out as per-node and per-app phases across the shard
// engines (shard.go) — one shard when the kernel is not split — over
// the dense hot state (hotstate.go) when nothing watches the registry.
// It walks the incremental indexes (index.go) instead of re-deriving
// sorted views, writes through cached metric handles (handles.go)
// instead of by-name lookups, and reuses the cluster's scratch buffers
// — in steady state (nothing pending, topology unchanged) a tick
// performs no allocations (TestTickSteadyStateAllocs enforces this).
func (c *Cluster) tick() {
	c.lastTick = TickResult{At: c.now()}
	c.schedulePending()
	c.tickSharded()
}

// nodeSlowdown refreshes n.slow — the interference slowdown derived
// from last tick's usage (phase1 of the tick).
func (c *Cluster) nodeSlowdown(n *NodeObject) {
	s := 1.0
	if c.cfg.Interference && n.Ready {
		pressure, _ := n.Usage.DominantShare(n.Allocatable)
		s = perf.InterferenceSlowdown(pressure)
	}
	n.slow = s
}

// phaseNodeUsage re-derives one node's usage sum and running-pod count
// from its bound pods; the staged tick's P3 calls it per shard, and
// flushNodes consumes n.running for the consolidation signal.
func (c *Cluster) phaseNodeUsage(n *NodeObject) {
	var usage resource.Vector
	running := 0
	for _, p := range c.byNode[n.Name] {
		if p.Phase == Running {
			usage = usage.Add(p.Usage)
			running++
		}
	}
	n.Usage = usage
	n.running = running
}

// UtilisationSummary returns the time-weighted mean cluster allocation
// and usage fractions (of allocatable capacity, per resource) over
// (from, to] — the headline utilisation numbers of the Table 1
// comparison.
func (c *Cluster) UtilisationSummary(from, to time.Duration) (allocFrac, usageFrac resource.Vector) {
	for _, k := range resource.Kinds() {
		allocFrac[k] = c.met.Series("cluster/allocated/"+k.String()).TimeWeightedMean(from, to)
		usageFrac[k] = c.met.Series("cluster/usage/"+k.String()).TimeWeightedMean(from, to)
	}
	return allocFrac, usageFrac
}
