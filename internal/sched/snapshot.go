package sched

import (
	"fmt"
	"slices"
	"strings"

	"evolve/internal/resource"
)

// Snapshot is a reusable scheduling view of the cluster: the node states
// plus derived per-node caches (free headroom, reciprocal allocatable)
// and a per-resource feasibility index that lets Place probe only
// the nodes that can possibly fit a pod.
//
// The index keeps, for every resource kind, the live node entries sorted
// by free capacity descending (ties: name ascending). A pod requesting r
// of kind k can only fit on the prefix of order[k] whose free[k] >= r, so
// the candidate set for a pod is the shortest such prefix across its
// requested kinds. Every node feasible for the pod lies in *every*
// kind's prefix, so probing one prefix loses nothing — the equivalence
// with a brute-force scan is exact (see TestSnapshotEquivalence).
//
// Lifecycle: Reset, AddNode (+AddPod) per node, Build, then any mix of
// Place / ScheduleOn / Commit / Fail. Commit and Fail maintain the index
// incrementally; a full rebuild is only needed when node state changes
// behind the snapshot's back. A Snapshot is not safe for concurrent
// mutation; the parallel score fan-out only reads it.
type Snapshot struct {
	nodes []NodeInfo
	free  []resource.Vector
	inv   []resource.Vector
	// byName maps live node name → entry index. Failed entries are
	// removed; len(byName) is the live count.
	byName map[string]int32
	// podBufs[e] is the snapshot-owned pod buffer for entry e. nodes[e].
	// Pods aliases caller memory until the first mutation (owned[e]
	// false), then points into podBufs[e].
	podBufs [][]PodInfo
	owned   []bool
	// order[k] holds the live entries sorted by free[k] descending, name
	// ascending; pos[k][e] is e's position in order[k] (-1 when failed).
	order [resource.NumKinds][]int32
	pos   [resource.NumKinds][]int32
	built bool

	stats SnapshotStats
}

// SnapshotStats counts snapshot maintenance work.
type SnapshotStats struct {
	Builds  uint64 // full index (re)builds
	Commits uint64 // incremental pod commits
	Fails   uint64 // node drains
}

// NewSnapshot returns an empty snapshot ready for Reset/AddNode/Build.
func NewSnapshot() *Snapshot {
	return &Snapshot{byName: make(map[string]int32)}
}

// Reset empties the snapshot, keeping its buffers for reuse.
func (sn *Snapshot) Reset() {
	sn.nodes = sn.nodes[:0]
	sn.free = sn.free[:0]
	sn.inv = sn.inv[:0]
	clear(sn.byName)
	sn.owned = sn.owned[:0]
	for k := range sn.order {
		sn.order[k] = sn.order[k][:0]
		sn.pos[k] = sn.pos[k][:0]
	}
	sn.built = false
}

// AddNode appends a node to the snapshot. info.Pods is aliased until the
// first Commit touches the entry (copy-on-write); callers that keep
// mutating the source slice should pass a copy or use AddPod. Call Build
// after the last AddNode. Node names must be unique: a duplicate would
// silently shadow the earlier entry in byName while both stay probeable
// through the index, so AddNode panics rather than corrupt the snapshot.
func (sn *Snapshot) AddNode(info NodeInfo) {
	if _, dup := sn.byName[info.Name]; dup {
		panic("sched: duplicate node name " + info.Name)
	}
	e := int32(len(sn.nodes))
	sn.nodes = append(sn.nodes, info)
	sn.free = append(sn.free, info.Free())
	sn.inv = append(sn.inv, invAllocatable(info.Allocatable))
	sn.byName[info.Name] = e
	sn.owned = append(sn.owned, false)
	sn.built = false
}

// AddPod appends a pod to the most recently added node, using
// snapshot-owned buffers (the cluster's rebuild path: AddNode with nil
// Pods, then AddPod per running pod).
func (sn *Snapshot) AddPod(p PodInfo) {
	e := len(sn.nodes) - 1
	if e < 0 {
		panic("sched: AddPod before AddNode")
	}
	sn.ensureOwned(e)
	sn.podBufs[e] = append(sn.podBufs[e], p)
	sn.nodes[e].Pods = sn.podBufs[e]
}

// ensureOwned moves entry e's pod list into the snapshot-owned buffer so
// it can be appended to without disturbing caller memory.
func (sn *Snapshot) ensureOwned(e int) {
	for len(sn.podBufs) <= e {
		sn.podBufs = append(sn.podBufs, nil)
	}
	if sn.owned[e] {
		return
	}
	sn.podBufs[e] = append(sn.podBufs[e][:0], sn.nodes[e].Pods...)
	sn.nodes[e].Pods = sn.podBufs[e]
	sn.owned[e] = true
}

// Build (re)computes the feasibility index over the current entries.
// Place builds lazily, but calling it explicitly after the AddNode
// loop keeps the build cost out of the first placement.
func (sn *Snapshot) Build() {
	sn.stats.Builds++
	n := len(sn.nodes)
	for k := range sn.order {
		order := sn.order[k][:0]
		for e := range sn.nodes {
			if _, live := sn.byName[sn.nodes[e].Name]; live {
				order = append(order, int32(e))
			}
		}
		kk := k
		slices.SortFunc(order, func(a, b int32) int {
			fa, fb := sn.free[a][kk], sn.free[b][kk]
			if fa != fb {
				if fa > fb {
					return -1
				}
				return 1
			}
			return strings.Compare(sn.nodes[a].Name, sn.nodes[b].Name)
		})
		sn.order[k] = order
		pos := sn.pos[k][:0]
		for len(pos) < n {
			pos = append(pos, -1)
		}
		for i, e := range order {
			pos[e] = int32(i)
		}
		sn.pos[k] = pos
	}
	sn.built = true
}

// Commit applies a pod placement to the snapshot: allocation, headroom,
// pod list, and index position are all updated incrementally (the entry
// only ever moves toward the low-headroom end of each kind's order).
// Returns false when the node is unknown or failed.
func (sn *Snapshot) Commit(node string, p PodInfo) bool {
	e, ok := sn.byName[node]
	if !ok {
		return false
	}
	sn.stats.Commits++
	sn.nodes[e].Allocated = sn.nodes[e].Allocated.Add(p.Requests)
	sn.free[e] = sn.nodes[e].Free()
	sn.ensureOwned(int(e))
	sn.podBufs[e] = append(sn.podBufs[e], p)
	sn.nodes[e].Pods = sn.podBufs[e]
	if !sn.built {
		return true
	}
	for k := range sn.order {
		sn.siftDown(k, e)
	}
	return true
}

// siftDown restores order[k] around entry e after its free capacity
// decreased: bubble it toward the tail while a right neighbour should
// precede it.
func (sn *Snapshot) siftDown(k int, e int32) {
	order, pos := sn.order[k], sn.pos[k]
	i := pos[e]
	for int(i) < len(order)-1 {
		n := order[i+1]
		fe, fn := sn.free[e][k], sn.free[n][k]
		if fn > fe || (fn == fe && sn.nodes[n].Name < sn.nodes[e].Name) {
			order[i], order[i+1] = n, e
			pos[n], pos[e] = i, i+1
			i++
			continue
		}
		break
	}
}

// Fail drains a node in place, exactly like the cluster's FailNode used
// to do on the flat snapshot: the entry keeps its name (so error totals
// and traces stay stable) but loses capacity, pods, and its index slots,
// making it unreachable through candidates().
func (sn *Snapshot) Fail(node string) bool {
	e, ok := sn.byName[node]
	if !ok {
		return false
	}
	sn.stats.Fails++
	delete(sn.byName, node)
	sn.nodes[e] = NodeInfo{Name: node}
	sn.free[e] = resource.Vector{}
	sn.inv[e] = resource.Vector{}
	if int(e) < len(sn.podBufs) {
		sn.podBufs[e] = sn.podBufs[e][:0]
	}
	sn.owned[e] = false
	if !sn.built {
		return true
	}
	for k := range sn.order {
		order, pos := sn.order[k], sn.pos[k]
		i := pos[e]
		copy(order[i:], order[i+1:])
		sn.order[k] = order[:len(order)-1]
		for j := int(i); j < len(sn.order[k]); j++ {
			pos[sn.order[k][j]] = int32(j)
		}
		pos[e] = -1
	}
	return true
}

// Len returns the total entry count, failed entries included — the
// denominator of "0/N nodes available" messages.
func (sn *Snapshot) Len() int { return len(sn.nodes) }

// Live returns the number of schedulable (non-failed) entries.
func (sn *Snapshot) Live() int { return len(sn.byName) }

// Nodes exposes the underlying entries (failed ones drained in place).
// The slice and its contents are owned by the snapshot: read-only,
// valid until the next Reset.
func (sn *Snapshot) Nodes() []NodeInfo { return sn.nodes }

// Lookup returns the live entry for a node name.
func (sn *Snapshot) Lookup(name string) (*NodeInfo, bool) {
	e, ok := sn.byName[name]
	if !ok {
		return nil, false
	}
	return &sn.nodes[e], true
}

// Stats returns the maintenance counters.
func (sn *Snapshot) Stats() SnapshotStats { return sn.stats }

// candidates returns the entries that can possibly fit the pod: the
// shortest per-kind prefix of nodes with enough free capacity in that
// kind. The returned slice aliases the index — read-only, valid until
// the next mutation. A pod with no positive request gets every live
// entry.
func (sn *Snapshot) candidates(pod *PodInfo) []int32 {
	k, n := sn.candidatePrefix(pod)
	return sn.order[k][:n]
}

// candidatePrefix locates the pod's candidate set in the feasibility
// index: the kind whose feasible prefix is shortest, and that prefix's
// length. A pod with no positive request gets kind 0's whole order
// (every live entry).
func (sn *Snapshot) candidatePrefix(pod *PodInfo) (kind, n int) {
	if !sn.built {
		sn.Build()
	}
	bestK, bestLen := -1, 0
	for k := 0; k < int(resource.NumKinds); k++ {
		req := pod.Requests[k]
		if req <= 0 {
			continue
		}
		order := sn.order[k]
		// First position whose free[k] < req; order is free-descending so
		// the feasible prefix is order[:i].
		lo, hi := 0, len(order)
		for lo < hi {
			mid := (lo + hi) / 2
			if sn.free[order[mid]][k] >= req {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if bestK < 0 || lo < bestLen {
			bestK, bestLen = k, lo
		}
	}
	if bestK < 0 {
		return 0, len(sn.order[0])
	}
	return bestK, bestLen
}

// maxDisjointScan bounds the membership scan in DisjointCandidates: the
// check is O(shorter prefix), so past this length the answer is a
// conservative "overlapping" rather than a linear walk per queue pod.
const maxDisjointScan = 32

// DisjointCandidates reports whether the two pods' candidate prefixes
// are provably disjoint. Disjoint candidates mean disjoint feasible
// sets (feasible ⊆ candidates), so committing one pod's placement
// cannot change which node the other would pick — the licence for
// scoring both concurrently against the same snapshot and committing
// in queue order (ScheduleBatch). Conservative: false negatives only.
//
// Two prefixes of the same kind's order always nest, so disjoint pods
// necessarily index through different resource kinds — batches are
// bounded by resource.NumKinds. An empty prefix (unschedulable pod)
// reports overlapping so the caller routes it through the serial path
// and its error message sees the exact committed state.
func (sn *Snapshot) DisjointCandidates(a, b *PodInfo) bool {
	ka, na := sn.candidatePrefix(a)
	kb, nb := sn.candidatePrefix(b)
	if na == 0 || nb == 0 || ka == kb {
		return false
	}
	if na > nb {
		ka, na, kb, nb = kb, nb, ka, na
	}
	if na > maxDisjointScan {
		return false
	}
	pos := sn.pos[kb]
	for _, e := range sn.order[ka][:na] {
		if pos[e] < int32(nb) {
			return false
		}
	}
	return true
}

// CheckInvariants verifies the snapshot's internal consistency: cache
// coherence, index ordering, and the index↔liveness correspondence.
// Test hook; O(kinds × nodes log nodes).
func (sn *Snapshot) CheckInvariants() error {
	for name, e := range sn.byName {
		if int(e) >= len(sn.nodes) || sn.nodes[e].Name != name {
			return fmt.Errorf("sched: byName[%s]=%d does not match entry", name, e)
		}
	}
	for e := range sn.nodes {
		want := sn.nodes[e].Free()
		if sn.free[e] != want {
			return fmt.Errorf("sched: entry %d free cache %v, want %v", e, sn.free[e], want)
		}
		if _, live := sn.byName[sn.nodes[e].Name]; live {
			if want := invAllocatable(sn.nodes[e].Allocatable); sn.inv[e] != want {
				return fmt.Errorf("sched: entry %d inv cache %v, want %v", e, sn.inv[e], want)
			}
			// invAllocatable precondition: no allocation on a zero-capacity
			// dimension, or fused and plugin-chain scores diverge.
			for k := range sn.nodes[e].Allocatable {
				if sn.nodes[e].Allocatable[k] == 0 && sn.nodes[e].Allocated[k] > 0 {
					return fmt.Errorf("sched: entry %d (%s) allocated %v of zero-capacity kind %d",
						e, sn.nodes[e].Name, sn.nodes[e].Allocated[k], k)
				}
			}
		}
	}
	if !sn.built {
		return nil
	}
	for k := range sn.order {
		order, pos := sn.order[k], sn.pos[k]
		if len(order) != len(sn.byName) {
			return fmt.Errorf("sched: order[%d] holds %d entries, %d live", k, len(order), len(sn.byName))
		}
		for i, e := range order {
			if pos[e] != int32(i) {
				return fmt.Errorf("sched: pos[%d][%d]=%d, want %d", k, e, pos[e], i)
			}
			if i == 0 {
				continue
			}
			p := order[i-1]
			fp, fe := sn.free[p][k], sn.free[e][k]
			if fp < fe || (fp == fe && sn.nodes[p].Name >= sn.nodes[e].Name) {
				return fmt.Errorf("sched: order[%d] violated at %d: %s(%v) before %s(%v)",
					k, i, sn.nodes[p].Name, fp, sn.nodes[e].Name, fe)
			}
		}
	}
	return nil
}
