package baseline

import "evolve/internal/ckpt"

// Checkpoint serialisation for the stateful baselines (Static is
// stateless and needs none).

// CkptSave implements control.StateSaver.
func (h *HPA) CkptSave(w *ckpt.Writer) {
	w.Int(len(h.recent))
	for _, r := range h.recent {
		w.Int(r)
	}
}

// CkptLoad implements control.StateSaver.
func (h *HPA) CkptLoad(r *ckpt.Reader) error {
	n := r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	h.recent = make([]int, n)
	for i := range h.recent {
		h.recent[i] = r.Int()
	}
	return r.Err()
}

// CkptSave implements control.StateSaver.
func (v *VPA) CkptSave(w *ckpt.Writer) {
	for _, hist := range v.hist {
		w.Int(len(hist))
		for _, x := range hist {
			w.F64(x)
		}
	}
}

// CkptLoad implements control.StateSaver.
func (v *VPA) CkptLoad(r *ckpt.Reader) error {
	for k := range v.hist {
		n := r.Count(8)
		if r.Err() != nil {
			return r.Err()
		}
		v.hist[k] = make([]float64, n)
		for i := range v.hist[k] {
			v.hist[k][i] = r.F64()
		}
	}
	return r.Err()
}
