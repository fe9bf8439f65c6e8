package metrics

import "evolve/internal/ckpt"

// Checkpoint serialisation for the telemetry registry. Instruments are
// restored in place when they already exist on the live registry — the
// cluster holds resolved pointers to hot series and counters, so the
// pointers must keep pointing at the restored state — and lazily
// injected otherwise. The percentile memo is deliberately not
// serialised; it rebuilds on first query.

// CkptSave writes every series, histogram and counter in sorted name
// order.
func (r *Registry) CkptSave(w *ckpt.Writer) {
	w.Begin("metrics")
	names := r.SeriesNames()
	w.Int(len(names))
	for _, name := range names {
		s := r.series[name]
		w.Str(name)
		w.Int(len(s.samples))
		for _, sm := range s.samples {
			w.Dur(sm.At)
			w.F64(sm.Value)
		}
	}
	hnames := r.HistogramNames()
	w.Int(len(hnames))
	for _, name := range hnames {
		h := r.histograms[name]
		w.Str(name)
		w.F64(h.min)
		w.F64(h.max)
		w.F64(h.ratio)
		w.Int(len(h.counts))
		for _, c := range h.counts {
			w.U64(c)
		}
		w.U64(h.total)
		w.F64(h.sum)
		w.F64(h.vmin)
		w.F64(h.vmax)
	}
	cnames := r.CounterNames()
	w.Int(len(cnames))
	for _, name := range cnames {
		w.Str(name)
		w.U64(r.counters[name].n)
	}
}

// CkptLoad restores the registry from a checkpoint stream. It bumps the
// registry generation: histograms may be injected or reshaped in place.
func (r *Registry) CkptLoad(cr *ckpt.Reader) error {
	defer r.gen.Add(1)
	cr.Begin("metrics")
	ns := cr.Count(2 * 8)
	if cr.Err() != nil {
		return cr.Err()
	}
	for i := 0; i < ns; i++ {
		name := cr.Str()
		n := cr.Count(2 * 8)
		if cr.Err() != nil {
			return cr.Err()
		}
		s := r.Series(name)
		samples := make([]Sample, n)
		for j := range samples {
			samples[j].At = cr.Dur()
			samples[j].Value = cr.F64()
		}
		s.samples = samples
		s.sorted, s.sortedLen = nil, 0
	}
	nh := cr.Count(minHistogramBytes)
	if cr.Err() != nil {
		return cr.Err()
	}
	for i := 0; i < nh; i++ {
		name := cr.Str()
		min, max, ratio := cr.F64(), cr.F64(), cr.F64()
		nb := cr.Count(8)
		if cr.Err() != nil {
			return cr.Err()
		}
		counts := make([]uint64, nb)
		for j := range counts {
			counts[j] = cr.U64()
		}
		h, ok := r.histograms[name]
		if !ok {
			h = &Histogram{}
			r.mu.Lock()
			r.histograms[name] = h
			r.mu.Unlock()
		}
		h.min, h.max, h.ratio, h.counts = min, max, ratio, counts
		h.total = cr.U64()
		h.sum = cr.F64()
		h.vmin = cr.F64()
		h.vmax = cr.F64()
	}
	nc := cr.Count(2 * 8)
	if cr.Err() != nil {
		return cr.Err()
	}
	for i := 0; i < nc; i++ {
		name := cr.Str()
		n := cr.U64()
		r.Counter(name).n = n
	}
	return cr.Err()
}

// minHistogramBytes is the smallest encoded histogram: name, geometry,
// an empty bucket list and the summary fields. Every length prefix goes
// through ckpt.Reader.Count, which bounds it by the bytes left, so a
// corrupt count cannot allocate more than the stream's own size.
const minHistogramBytes = 8 + 3*8 + 8 + 4*8
