package sched

import (
	"sync"

	"evolve/internal/par"
)

// BatchResult is one pod's outcome from ScheduleBatch: the chosen node,
// or OK=false when no candidate was feasible. Like Place, the failure
// path carries no diagnosis — the caller replays the pod through its
// serial step against the committed snapshot, so any preemption (and,
// when it is read, the Diagnose message) sees the exact state a serial
// walk would have.
type BatchResult struct {
	Node string
	OK   bool
}

// batchJob scores one batch member on the shared pool. best and cand
// are written by the worker and read by the caller only after Wait;
// the padding keeps adjacent jobs off one cache line while they write.
type batchJob struct {
	s    *Scheduler
	snap *Snapshot
	pod  *PodInfo
	wg   *sync.WaitGroup
	best int32
	cand int
	_    [32]byte
}

// Run implements par.Job.
func (j *batchJob) Run() {
	defer j.wg.Done()
	j.run()
}

func (j *batchJob) run() {
	cand := j.snap.candidates(j.pod)
	j.cand = len(cand)
	j.best, _ = j.s.bestOf(j.pod, j.snap, cand)
}

// ScheduleBatch scores pods concurrently against the snapshot, writing
// results[i] for pods[i]. The caller must have established that the
// pods' candidate prefixes are pairwise disjoint (DisjointCandidates):
// under that precondition each member's feasible set is untouched by
// the others' placements, so the chosen nodes are byte-identical to
// scheduling the pods one at a time with a Commit between — which is
// exactly how the caller must apply the results (in pod order,
// abandoning the remainder after any non-OK result or bind failure).
//
// The workers only read the snapshot and the scheduler's immutable
// plugin configuration; probe statistics are accounted here, serially.
// Probed/Pruned may differ marginally from the serial walk (the index
// is probed pre-commit), which is why they stay out of the
// determinism fingerprint.
func (s *Scheduler) ScheduleBatch(pods []PodInfo, snap *Snapshot, results []BatchResult) {
	if !snap.built {
		snap.Build()
	}
	n := len(pods)
	if n == 0 {
		return
	}
	if cap(s.batchJobs) < n {
		s.batchJobs = make([]batchJob, n)
	}
	jobs := s.batchJobs[:n]
	s.batchWG.Add(n - 1)
	for i := 1; i < n; i++ {
		jobs[i] = batchJob{s: s, snap: snap, pod: &pods[i], wg: &s.batchWG}
		par.Submit(&jobs[i])
	}
	jobs[0] = batchJob{s: s, snap: snap, pod: &pods[0]}
	jobs[0].run()
	if n > 1 {
		s.batchWG.Wait()
	}
	live := uint64(snap.Live())
	for i := range jobs {
		s.stats.Calls++
		s.stats.BatchCalls++
		s.stats.Probed += uint64(jobs[i].cand)
		s.stats.Pruned += live - uint64(jobs[i].cand)
		if jobs[i].best < 0 {
			results[i] = BatchResult{}
			continue
		}
		results[i] = BatchResult{Node: snap.nodes[jobs[i].best].Name, OK: true}
	}
}
