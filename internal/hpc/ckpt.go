package hpc

import (
	"fmt"
	"sort"

	"evolve/internal/ckpt"
	"evolve/internal/perf"
	"evolve/internal/resource"
)

// minJobBytes is the smallest encoded job (for ckpt.Reader.Count): a
// spec with an empty name and selector, then the job's lifecycle.
const minJobBytes = 8 + 8 + 2*8*int(resource.NumKinds) + 8 + 8 + 8 + 8 + 3*8 + 3 + 4*8

func saveSpec(w *ckpt.Writer, spec *JobSpec) {
	w.Str(spec.Name)
	w.Int(spec.Ranks)
	spec.PerRank.CkptSave(w)
	spec.Model.Work.CkptSave(w)
	w.F64(spec.Model.MemSet)
	w.Int(spec.Priority)
	w.Int(spec.MaxRestarts)
	keys := make([]string, 0, len(spec.NodeSelector))
	for k := range spec.NodeSelector {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Int(len(keys))
	for _, k := range keys {
		w.Str(k)
		w.Str(spec.NodeSelector[k])
	}
}

func loadSpec(r *ckpt.Reader) (JobSpec, error) {
	var spec JobSpec
	spec.Name = r.Str()
	spec.Ranks = r.Int()
	spec.PerRank = resource.LoadVector(r)
	spec.Model = perf.TaskModel{Work: resource.LoadVector(r), MemSet: r.F64()}
	spec.Priority = r.Int()
	spec.MaxRestarts = r.Int()
	nl := r.Count(2 * 8)
	if r.Err() != nil {
		return spec, r.Err()
	}
	if nl > 0 {
		spec.NodeSelector = make(map[string]string, nl)
		for i := 0; i < nl; i++ {
			k := r.Str()
			spec.NodeSelector[k] = r.Str()
		}
	}
	return spec, r.Err()
}

// CkptSave writes the queue's full state: every submitted job's spec and
// lifecycle, plus the pending order (dispatch order is part of the
// deterministic replay contract — FCFS head blocking depends on it).
func (q *Queue) CkptSave(w *ckpt.Writer) {
	w.Begin("hpc")
	names := make([]string, 0, len(q.all))
	for n := range q.all {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Int(len(names))
	for _, n := range names {
		js := q.all[n]
		saveSpec(w, &js.spec)
		w.Dur(js.submittedAt)
		w.Dur(js.startedAt)
		w.Dur(js.finishedAt)
		w.Bool(js.started)
		w.Bool(js.done)
		w.Bool(js.failed)
		w.Int(js.restarts)
		w.Int(js.remaining)
		w.Int(js.attempt)
		w.Int(js.aborted)
	}
	w.Int(len(q.pending))
	for _, js := range q.pending {
		w.Str(js.spec.Name)
	}
}

// CkptLoad restores state written by CkptSave into a fresh queue on the
// restored cluster. Rank completion callbacks are reattached separately
// (ReattachRank), driven by the cluster's live task pods.
func (q *Queue) CkptLoad(r *ckpt.Reader) error {
	r.Begin("hpc")
	nj := r.Count(minJobBytes)
	if r.Err() != nil {
		return r.Err()
	}
	q.all = make(map[string]*jobState, nj)
	for i := 0; i < nj; i++ {
		spec, err := loadSpec(r)
		if err != nil {
			return err
		}
		js := &jobState{spec: spec}
		js.submittedAt = r.Dur()
		js.startedAt = r.Dur()
		js.finishedAt = r.Dur()
		js.started = r.Bool()
		js.done = r.Bool()
		js.failed = r.Bool()
		js.restarts = r.Int()
		js.remaining = r.Int()
		js.attempt = r.Int()
		js.aborted = r.Int()
		q.all[spec.Name] = js
	}
	np := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	q.pending = q.pending[:0]
	for i := 0; i < np; i++ {
		n := r.Str()
		if r.Err() != nil {
			return r.Err()
		}
		js, ok := q.all[n]
		if !ok {
			return fmt.Errorf("hpc: ckpt: pending job %q not in job set", n)
		}
		q.pending = append(q.pending, js)
	}
	return r.Err()
}
