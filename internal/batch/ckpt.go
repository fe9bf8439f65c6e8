package batch

import (
	"sort"

	"evolve/internal/ckpt"
	"evolve/internal/perf"
	"evolve/internal/resource"
)

// Minimum encoded sizes of the checkpointed collection elements, for
// ckpt.Reader.Count.
const (
	vectorBytes = 8 * int(resource.NumKinds)
	// minStageBytes: name, tasks, work, mem set, requests and the two
	// empty dependency and selector lists.
	minStageBytes = 8 + 8 + vectorBytes + 8 + vectorBytes + 8 + 8
	// minJobBytes: a spec with no stages, then the job's times and flag.
	minJobBytes = 4*8 + 2*8 + 1
)

func saveSpec(w *ckpt.Writer, spec *JobSpec) {
	w.Str(spec.Name)
	w.Int(spec.Priority)
	w.Int(spec.MaxRetries)
	w.Int(len(spec.Stages))
	for i := range spec.Stages {
		s := &spec.Stages[i]
		w.Str(s.Name)
		w.Int(s.Tasks)
		s.Model.Work.CkptSave(w)
		w.F64(s.Model.MemSet)
		s.Requests.CkptSave(w)
		w.Int(len(s.DependsOn))
		for _, d := range s.DependsOn {
			w.Str(d)
		}
		keys := make([]string, 0, len(s.NodeSelector))
		for k := range s.NodeSelector {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		w.Int(len(keys))
		for _, k := range keys {
			w.Str(k)
			w.Str(s.NodeSelector[k])
		}
	}
}

func loadSpec(r *ckpt.Reader) (JobSpec, error) {
	var spec JobSpec
	spec.Name = r.Str()
	spec.Priority = r.Int()
	spec.MaxRetries = r.Int()
	ns := r.Count(minStageBytes)
	if r.Err() != nil {
		return spec, r.Err()
	}
	spec.Stages = make([]Stage, ns)
	for i := range spec.Stages {
		s := &spec.Stages[i]
		s.Name = r.Str()
		s.Tasks = r.Int()
		s.Model = perf.TaskModel{Work: resource.LoadVector(r), MemSet: r.F64()}
		s.Requests = resource.LoadVector(r)
		nd := r.Count(8)
		if r.Err() != nil {
			return spec, r.Err()
		}
		for j := 0; j < nd; j++ {
			s.DependsOn = append(s.DependsOn, r.Str())
		}
		nl := r.Count(2 * 8)
		if r.Err() != nil {
			return spec, r.Err()
		}
		if nl > 0 {
			s.NodeSelector = make(map[string]string, nl)
			for j := 0; j < nl; j++ {
				k := r.Str()
				s.NodeSelector[k] = r.Str()
			}
		}
	}
	return spec, r.Err()
}

// CkptSave writes the runner's full state: job specs (the submission
// timers that delivered them have already fired by checkpoint time, so
// the restored world cannot re-derive them), DAG progress, per-task
// retry counts and the in-flight task pod set.
func (r *Runner) CkptSave(w *ckpt.Writer) {
	w.Begin("batch")
	w.U64(r.taskSeq)
	names := make([]string, 0, len(r.jobs))
	for n := range r.jobs {
		names = append(names, n)
	}
	sort.Strings(names)
	w.Int(len(names))
	for _, n := range names {
		js := r.jobs[n]
		saveSpec(w, &js.spec)
		w.Dur(js.submittedAt)
		w.Dur(js.finishedAt)
		w.Bool(js.done)
		for i := range js.spec.Stages {
			st := js.stages[js.spec.Stages[i].Name]
			w.Bool(st.launched)
			w.Int(st.remaining)
			keys := make([]string, 0, len(st.retries))
			for k := range st.retries {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			w.Int(len(keys))
			for _, k := range keys {
				w.Str(k)
				w.Int(st.retries[k])
			}
		}
	}
	pods := make([]string, 0, len(r.inflight))
	for p := range r.inflight {
		pods = append(pods, p)
	}
	sort.Strings(pods)
	w.Int(len(pods))
	for _, p := range pods {
		ref := r.inflight[p]
		w.Str(p)
		w.Str(ref.job)
		w.Str(ref.stage)
		w.Int(ref.idx)
	}
}

// CkptLoad restores state written by CkptSave into a fresh runner bound
// to the restored cluster. Task completion callbacks are reattached
// separately: the cluster restorer calls ReattachTask per live task pod.
func (r *Runner) CkptLoad(cr *ckpt.Reader) error {
	cr.Begin("batch")
	r.taskSeq = cr.U64()
	nj := cr.Count(minJobBytes)
	if cr.Err() != nil {
		return cr.Err()
	}
	r.jobs = make(map[string]*jobState, nj)
	for i := 0; i < nj; i++ {
		spec, err := loadSpec(cr)
		if err != nil {
			return err
		}
		js := &jobState{
			spec:        spec,
			stages:      make(map[string]*stageState, len(spec.Stages)),
			submittedAt: cr.Dur(),
			finishedAt:  cr.Dur(),
			done:        cr.Bool(),
		}
		for si := range spec.Stages {
			s := &spec.Stages[si]
			st := &stageState{spec: s, retries: make(map[string]int)}
			st.launched = cr.Bool()
			st.remaining = cr.Int()
			nr := cr.Count(2 * 8)
			if cr.Err() != nil {
				return cr.Err()
			}
			for j := 0; j < nr; j++ {
				k := cr.Str()
				st.retries[k] = cr.Int()
			}
			js.stages[s.Name] = st
		}
		r.jobs[spec.Name] = js
	}
	np := cr.Count(4 * 8)
	if cr.Err() != nil {
		return cr.Err()
	}
	r.inflight = make(map[string]taskRef, np)
	for i := 0; i < np; i++ {
		p := cr.Str()
		r.inflight[p] = taskRef{job: cr.Str(), stage: cr.Str(), idx: cr.Int()}
	}
	return cr.Err()
}
