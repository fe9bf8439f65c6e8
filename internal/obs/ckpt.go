package obs

import (
	"fmt"

	"evolve/internal/ckpt"
	"evolve/internal/resource"
)

// SaveControlTrace writes a controller decision decomposition; the
// controllers' StateSaver implementations carry their lastTrace through
// checkpoints with it.
func SaveControlTrace(w *ckpt.Writer, t ControlTrace) {
	w.Str(t.Stage)
	w.F64(t.UtilTarget)
	w.Int(t.Adaptations)
	w.Int(t.FlooredKinds)
	for _, term := range t.Terms {
		w.F64(term.Err)
		w.F64(term.P)
		w.F64(term.I)
		w.F64(term.D)
		w.F64(term.Out)
		w.Bool(term.Clamped)
	}
	for _, g := range t.Gains {
		w.F64(g.Kp)
		w.F64(g.Ki)
		w.F64(g.Kd)
	}
}

// LoadControlTrace reads a ControlTrace written by SaveControlTrace.
func LoadControlTrace(r *ckpt.Reader) ControlTrace {
	var t ControlTrace
	t.Stage = r.Str()
	t.UtilTarget = r.F64()
	t.Adaptations = r.Int()
	t.FlooredKinds = r.Int()
	for k := range t.Terms {
		t.Terms[k] = PIDTerm{Err: r.F64(), P: r.F64(), I: r.F64(), D: r.F64(), Out: r.F64(), Clamped: r.Bool()}
	}
	for k := range t.Gains {
		t.Gains[k] = GainSet{Kp: r.F64(), Ki: r.F64(), Kd: r.F64()}
	}
	return t
}

func saveLatHist(w *ckpt.Writer, h *LatencyHistogram) {
	w.Str(h.Name)
	w.Int(len(h.Counts))
	for _, c := range h.Counts {
		w.U64(c)
	}
	w.U64(h.Count)
	w.F64(h.Sum)
	w.F64(h.Max)
	w.U64(h.Exemplar)
}

// loadLatHist reads a histogram written by saveLatHist into h, which
// must already carry the right bounds (bounds are configuration: the
// tracer's built-in kinds and phase histograms share package defaults).
func loadLatHist(r *ckpt.Reader, h *LatencyHistogram) error {
	name := r.Str()
	n := r.Int()
	if r.Err() != nil {
		return r.Err()
	}
	if h.Counts == nil {
		// A phase histogram materialised on first use: reconstruct it.
		*h = NewLatencyHistogram(name, DefaultWallBuckets)
	}
	if n != len(h.Counts) {
		return fmt.Errorf("obs: ckpt: histogram %s has %d buckets, checkpoint %d", h.Name, len(h.Counts), n)
	}
	if name != h.Name {
		return fmt.Errorf("obs: ckpt: histogram name %q, checkpoint %q", h.Name, name)
	}
	for i := range h.Counts {
		h.Counts[i] = r.U64()
	}
	h.Count = r.U64()
	h.Sum = r.F64()
	h.Max = r.F64()
	h.Exemplar = r.U64()
	return r.Err()
}

// saveEvent writes one ring event as a fixed binary record; the PID
// decomposition follows only when HasCtrl is set.
func saveEvent(w *ckpt.Writer, ev *Event) {
	w.U64(ev.Seq)
	w.Dur(ev.At)
	w.U8(uint8(ev.Kind))
	w.Str(ev.Verb)
	w.Str(ev.App)
	w.Str(ev.Object)
	w.Str(ev.Node)
	w.Str(ev.Detail)
	w.F64(ev.PerfErr)
	w.F64(ev.SLI)
	w.F64(ev.Objective)
	w.F64(ev.Offered)
	w.Int(ev.Replicas)
	w.Int(ev.Ready)
	w.Int(ev.NewReplicas)
	ev.Alloc.CkptSave(w)
	ev.NewAlloc.CkptSave(w)
	ev.Util.CkptSave(w)
	w.Bool(ev.HasCtrl)
	if ev.HasCtrl {
		SaveControlTrace(w, ev.Ctrl)
	}
}

// loadEvent reads a record written by saveEvent.
func loadEvent(r *ckpt.Reader, ev *Event) error {
	ev.Seq = r.U64()
	ev.At = r.Dur()
	ev.Kind = Kind(r.U8())
	ev.Verb = r.Str()
	ev.App = r.Str()
	ev.Object = r.Str()
	ev.Node = r.Str()
	ev.Detail = r.Str()
	ev.PerfErr = r.F64()
	ev.SLI = r.F64()
	ev.Objective = r.F64()
	ev.Offered = r.F64()
	ev.Replicas = r.Int()
	ev.Ready = r.Int()
	ev.NewReplicas = r.Int()
	ev.Alloc = resource.LoadVector(r)
	ev.NewAlloc = resource.LoadVector(r)
	ev.Util = resource.LoadVector(r)
	ev.HasCtrl = r.Bool()
	if ev.HasCtrl {
		ev.Ctrl = LoadControlTrace(r)
	}
	if r.Err() != nil {
		return r.Err()
	}
	if ev.Kind >= numKinds {
		return fmt.Errorf("obs: ckpt: event %d has kind %d", ev.Seq, ev.Kind)
	}
	return nil
}

// saveSpan writes one ring span as a fixed binary record.
func saveSpan(w *ckpt.Writer, sp *Span) {
	w.U64(sp.ID)
	w.U64(sp.Parent)
	w.U8(uint8(sp.Kind))
	w.Str(sp.App)
	w.Str(sp.Object)
	w.Str(sp.Node)
	w.Str(sp.Detail)
	w.I64(int64(sp.Shard))
	w.Dur(sp.Start)
	w.Dur(sp.End)
	w.I64(sp.WallNs)
}

// loadSpan reads a record written by saveSpan.
func loadSpan(r *ckpt.Reader, sp *Span) error {
	sp.ID = r.U64()
	sp.Parent = r.U64()
	sp.Kind = SpanKind(r.U8())
	sp.App = r.Str()
	sp.Object = r.Str()
	sp.Node = r.Str()
	sp.Detail = r.Str()
	shard := r.I64()
	sp.Shard = int32(shard)
	sp.Start = r.Dur()
	sp.End = r.Dur()
	sp.WallNs = r.I64()
	if r.Err() != nil {
		return r.Err()
	}
	if sp.Kind >= numSpanKinds {
		return fmt.Errorf("obs: ckpt: span %d has kind %d", sp.ID, sp.Kind)
	}
	if int64(sp.Shard) != shard {
		return fmt.Errorf("obs: ckpt: span %d has shard %d", sp.ID, shard)
	}
	return nil
}

// CkptSave writes the tracer's full state: both rings as binary records
// (oldest first), sequence and drop counters, and the latency
// histograms. Sinks and their latched errors are caller-owned wiring and
// deliberately excluded.
func (t *Tracer) CkptSave(w *ckpt.Writer) {
	w.Begin("tracer")
	w.Bool(t.Enabled())
	if !t.Enabled() {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w.Int(len(t.buf))
	w.U64(t.seq)
	w.U64(t.dropped)
	old, recent := t.buf[:0], t.buf[:t.next]
	if t.wrapped {
		old = t.buf[t.next:]
	}
	w.Int(len(old) + len(recent))
	for _, evs := range [2][]Event{old, recent} {
		for i := range evs {
			saveEvent(w, &evs[i])
		}
	}

	w.Int(len(t.spans))
	w.U64(t.spanSeq)
	w.U64(t.spanDropped)
	oldSp, recentSp := t.spans[:0], t.spans[:t.spanNext]
	if t.spanWrapped {
		oldSp = t.spans[t.spanNext:]
	}
	w.Int(len(oldSp) + len(recentSp))
	for _, sps := range [2][]Span{oldSp, recentSp} {
		for i := range sps {
			saveSpan(w, &sps[i])
		}
	}

	for k := range t.lat {
		saveLatHist(w, &t.lat[k])
	}
	w.Int(len(t.phase))
	for i := range t.phase {
		present := t.phase[i].Counts != nil
		w.Bool(present)
		if present {
			saveLatHist(w, &t.phase[i])
		}
	}
}

// CkptLoad restores state written by CkptSave into a tracer constructed
// with the same capacity. The ring is rebuilt in canonical rotation
// (oldest at index 0) — rotation is unobservable through Snapshot and
// subsequent records. Sinks should be attached after the load. Streams
// before format version 3 carry each ring record as one JSON line (the
// sink encoding), decoded with ParseEvent and ParseSpan.
func (t *Tracer) CkptLoad(r *ckpt.Reader) error {
	r.Begin("tracer")
	enabled := r.Bool()
	if r.Err() != nil {
		return r.Err()
	}
	if enabled != t.Enabled() {
		return fmt.Errorf("obs: ckpt: tracer enabled=%v, checkpoint %v", t.Enabled(), enabled)
	}
	if !enabled {
		return nil
	}
	records := r.Version() >= 3
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := r.Int(); c != len(t.buf) {
		return fmt.Errorf("obs: ckpt: event ring capacity %d, checkpoint %d", len(t.buf), c)
	}
	t.seq = r.U64()
	t.dropped = r.U64()
	n := r.Count(8) // every record, binary or JSON, takes at least 8 bytes
	if r.Err() != nil {
		return r.Err()
	}
	if n > len(t.buf) {
		return fmt.Errorf("obs: ckpt: event count %d exceeds ring %d", n, len(t.buf))
	}
	clear(t.buf)
	for i := 0; i < n; i++ {
		var err error
		if records {
			err = loadEvent(r, &t.buf[i])
		} else {
			t.buf[i], err = ParseEvent(r.Bytes())
		}
		if r.Err() != nil {
			return r.Err()
		}
		if err != nil {
			return err
		}
	}
	t.wrapped = n == len(t.buf)
	if t.wrapped {
		t.next = 0
	} else {
		t.next = n
	}

	if c := r.Int(); c != len(t.spans) {
		return fmt.Errorf("obs: ckpt: span ring capacity %d, checkpoint %d", len(t.spans), c)
	}
	t.spanSeq = r.U64()
	t.spanDropped = r.U64()
	n = r.Count(8)
	if r.Err() != nil {
		return r.Err()
	}
	if n > len(t.spans) {
		return fmt.Errorf("obs: ckpt: span count %d exceeds ring %d", n, len(t.spans))
	}
	clear(t.spans)
	for i := 0; i < n; i++ {
		var err error
		if records {
			err = loadSpan(r, &t.spans[i])
		} else {
			t.spans[i], err = ParseSpan(r.Bytes())
		}
		if r.Err() != nil {
			return r.Err()
		}
		if err != nil {
			return err
		}
	}
	t.spanWrapped = n == len(t.spans)
	if t.spanWrapped {
		t.spanNext = 0
	} else {
		t.spanNext = n
	}

	for k := range t.lat {
		if err := loadLatHist(r, &t.lat[k]); err != nil {
			return err
		}
	}
	np := r.Count(1) // a presence flag at least
	if r.Err() != nil {
		return r.Err()
	}
	t.phase = t.phase[:0]
	for i := 0; i < np; i++ {
		t.phase = append(t.phase, LatencyHistogram{})
		if r.Bool() {
			if err := loadLatHist(r, &t.phase[i]); err != nil {
				return err
			}
		}
	}
	return r.Err()
}
