package obs

import (
	"bytes"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"

	"evolve/internal/metrics"
	"evolve/internal/resource"
)

// Prometheus text exposition (format version 0.0.4) of a metrics
// registry. The internal naming scheme maps onto metric families plus
// labels so dashboards aggregate naturally:
//
//	app/web/latency-mean      → evolve_app_latency_mean{app="web"}
//	app/web/alloc/cpu         → evolve_app_alloc{app="web",resource="cpu"}
//	cluster/usage/memory      → evolve_cluster_usage{resource="memory"}
//	plo/web/violations        → evolve_plo_violations_total{app="web"}
//	evictions/preempted       → evolve_evictions_total{reason="preempted"}
//	app/web/sli-hist          → evolve_app_sli_hist_bucket{app="web",le="…"}
//
// Series expose their most recent sample as a gauge; counters gain the
// conventional _total suffix; histograms expose cumulative buckets, sum
// and count. Families and label sets are emitted sorted, so the output
// is deterministic and diffable.
//
// The names, label blocks and bucket edges depend only on which
// instruments exist, so an Exposition derives them once into a layout
// and each scrape only appends the current values to fixed prefixes.

// WriteMetrics writes the registry (and, when tr is enabled, the
// tracer's own meters) in Prometheus text format. It builds a layout
// for this one call; callers that scrape repeatedly keep an Exposition.
func WriteMetrics(w io.Writer, reg *metrics.Registry, tr *Tracer) error {
	var e Exposition
	return e.Write(w, reg, tr)
}

// Exposition renders a registry and tracer in Prometheus text format
// from a layout cached across calls. The layout is rebuilt when the
// registry or tracer changes identity, when the registry's instrument
// generation moves (an instrument was created or a checkpoint loaded),
// or when the tracer's set of latency histograms changes. The zero
// value is ready to use; Write is safe for concurrent use, with calls
// serialised on the Exposition.
type Exposition struct {
	mu sync.Mutex

	// The layout and the inputs it was built from.
	reg      *metrics.Registry
	gen      uint64
	tr       *Tracer
	latNames []string
	fams     []expoFamily

	// snap is the tracer state copied under its lock, reused across
	// scrapes so a steady scrape does not allocate.
	snap traceSnap
}

// promType is a family's exposition type.
type promType uint8

const (
	typGauge promType = iota
	typCounter
	typHistogram
)

var promTypeNames = [...]string{"gauge", "counter", "histogram"}

// srcKind says where a source's values come from.
type srcKind uint8

const (
	srcSeries     srcKind = iota // latest sample of a series
	srcCounter                   // a registry counter
	srcHist                      // a registry histogram
	srcTraceMeter                // traceMeters[slot]
	srcLatHist                   // tracer latency histogram snap.lat[slot]
	srcLatMax                    // its worst value
	srcLatWorst                  // its worst span's ID, when it has one
)

// expoSource is one instrument's place in the layout.
type expoSource struct {
	kind    srcKind
	typ     promType
	slot    int
	series  *metrics.Series
	counter *metrics.Counter
	hist    *metrics.Histogram
	// prefix is everything before the value — name, label block and
	// the separating space — for single-line sources, and the bucket
	// line head up to and including `le="` for histograms, whose
	// edges come from le (`<edge>"} `, shared per bucket geometry).
	prefix     string
	sum, count string
	le         []string
}

// expoFamily is one metric family: its sources and pre-rendered header.
type expoFamily struct {
	name   string
	header string
	// mixed marks a family whose sources differ in type or share a
	// prefix (two internal names mangling to one sample). Its lines are
	// rendered and sorted at scrape time, as the format requires; every
	// other non-histogram family is sorted once, at layout build.
	mixed bool
	srcs  []expoSource
}

// traceMeters are the tracer's own counters and sink-health gauges, in
// the order they join the layout.
var traceMeters = [...]struct {
	name string
	typ  promType
}{
	{"evolve_trace_events_total", typCounter},
	{"evolve_trace_dropped_total", typCounter},
	{"evolve_trace_spans_total", typCounter},
	{"evolve_trace_span_dropped_total", typCounter},
	// Sink health: silent trace loss as a scrapeable gauge (1 = the
	// sink tee latched an error and stopped writing).
	{"evolve_trace_sink_error", typGauge},
	{"evolve_trace_span_sink_error", typGauge},
}

// traceSnap is the tracer state one scrape renders, copied under one
// acquisition of the tracer lock into buffers reused across scrapes.
type traceSnap struct {
	on     bool
	meters [len(traceMeters)]uint64
	lat    []latSnap
}

// latSnap is one latency histogram's state. The tracer-owned latency
// histograms expose the worst span's ID as an exemplar gauge (the 0.0.4
// text format has no exemplar syntax).
type latSnap struct {
	name     string
	bounds   []float64
	counts   []uint64
	count    uint64
	sum, max float64
	exemplar uint64
}

// take copies tr's meters and every materialised latency histogram —
// the built-in kinds in kind order, then the phase histograms.
func (s *traceSnap) take(tr *Tracer) {
	s.lat = s.lat[:0]
	s.on = tr.Enabled()
	if !s.on {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s.meters = [len(traceMeters)]uint64{tr.seq, tr.dropped, tr.spanSeq, tr.spanDropped, flag(tr.sink.err != nil), flag(tr.spanSink.err != nil)}
	for k := range tr.lat {
		s.add(&tr.lat[k])
	}
	for i := range tr.phase {
		s.add(&tr.phase[i])
	}
}

func (s *traceSnap) add(h *LatencyHistogram) {
	if h.Counts == nil {
		return // a phase slot not yet observed
	}
	if len(s.lat) == cap(s.lat) {
		s.lat = append(s.lat, latSnap{})
	} else {
		s.lat = s.lat[:len(s.lat)+1]
	}
	l := &s.lat[len(s.lat)-1]
	l.name, l.bounds = h.Name, h.Bounds
	l.counts = append(l.counts[:0], h.Counts...)
	l.count, l.sum, l.max, l.exemplar = h.Count, h.Sum, h.Max, h.Exemplar
}

func flag(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Write renders reg (and, when tr is enabled, the tracer's meters) to w
// in Prometheus text format, byte-identical to what a fresh layout
// would produce. Output goes to w in chunks of about chunkSize bytes.
func (e *Exposition) Write(w io.Writer, reg *metrics.Registry, tr *Tracer) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	gen := reg.Generation()
	e.snap.take(tr)
	if e.fams == nil || reg != e.reg || gen != e.gen || tr != e.tr || !e.sameLatency() {
		e.build(reg, tr)
		e.reg, e.gen, e.tr = reg, gen, tr
	}
	c := chunkWriter{w: w, buf: make([]byte, 0, chunkSize)}
	for i := range e.fams {
		f := &e.fams[i]
		if f.mixed {
			e.writeMixed(&c, f)
		} else {
			e.writeFamily(&c, f)
		}
		if c.err != nil {
			return c.err
		}
	}
	c.flush()
	return c.err
}

// sameLatency reports whether the snapshot holds the latency histograms
// the layout was built for.
func (e *Exposition) sameLatency() bool {
	if len(e.snap.lat) != len(e.latNames) {
		return false
	}
	for i := range e.snap.lat {
		if e.snap.lat[i].name != e.latNames[i] {
			return false
		}
	}
	return true
}

// build derives the layout: every instrument joins its family in the
// order registry series, counters, histograms, then tracer meters and
// latency histograms; families sort by name.
func (e *Exposition) build(reg *metrics.Registry, tr *Tracer) {
	byName := map[string]*expoFamily{}
	add := func(fam string, src expoSource) {
		f := byName[fam]
		if f == nil {
			f = &expoFamily{name: fam}
			byName[fam] = f
		}
		f.srcs = append(f.srcs, src)
	}
	for _, name := range reg.SeriesNames() {
		fam, labels := promName(name)
		add(fam, expoSource{kind: srcSeries, typ: typGauge, series: reg.Series(name), prefix: fam + labels + " "})
	}
	for _, name := range reg.CounterNames() {
		fam, labels := promName(name)
		fam += "_total"
		add(fam, expoSource{kind: srcCounter, typ: typCounter, counter: reg.Counter(name), prefix: fam + labels + " "})
	}
	edges := map[metrics.Geometry][]string{}
	for _, name := range reg.HistogramNames() {
		h, ok := reg.GetHistogram(name)
		if !ok {
			continue
		}
		g := h.Geometry()
		le, ok := edges[g]
		if !ok {
			le = make([]string, g.N)
			for i := range le {
				le[i] = formatValue(g.Edge(i)) + `"} `
			}
			edges[g] = le
		}
		fam, labels := promName(name)
		src := histSource(srcHist, 0, fam, labels, le)
		src.hist = h
		add(fam, src)
	}
	e.latNames = e.latNames[:0]
	if e.snap.on {
		for i, m := range traceMeters {
			add(m.name, expoSource{kind: srcTraceMeter, typ: m.typ, slot: i, prefix: m.name + " "})
		}
		for i := range e.snap.lat {
			l := &e.snap.lat[i]
			e.latNames = append(e.latNames, l.name)
			le := make([]string, len(l.bounds))
			for j, b := range l.bounds {
				le[j] = formatValue(b) + `"} `
			}
			fam := "evolve_latency_" + mangle(l.name) + "_seconds"
			add(fam, histSource(srcLatHist, i, fam, "", le))
			add(fam+"_max", expoSource{kind: srcLatMax, typ: typGauge, slot: i, prefix: fam + "_max "})
			add(fam+"_worst_span", expoSource{kind: srcLatWorst, typ: typGauge, slot: i, prefix: fam + "_worst_span "})
		}
	}

	e.fams = make([]expoFamily, 0, len(byName))
	for _, f := range byName {
		e.fams = append(e.fams, *f)
	}
	sort.Slice(e.fams, func(i, j int) bool { return e.fams[i].name < e.fams[j].name })
	for i := range e.fams {
		f := &e.fams[i]
		typ := f.srcs[0].typ
		for _, s := range f.srcs {
			f.mixed = f.mixed || s.typ != typ
		}
		if f.mixed {
			continue
		}
		f.header = "# TYPE " + f.name + " " + promTypeNames[typ] + "\n"
		if typ == typHistogram {
			continue // buckets ascending, then sum/count: already canonical
		}
		// Every source here is one line, prefix then value. Label values
		// are escaped and each prefix ends in its separating space, so no
		// prefix extends another: ordering by prefix orders the full
		// lines, as the format's sorted label sets require. Equal
		// prefixes would order by value, so they go the mixed way.
		sort.Slice(f.srcs, func(a, b int) bool { return f.srcs[a].prefix < f.srcs[b].prefix })
		for j := 1; j < len(f.srcs); j++ {
			f.mixed = f.mixed || f.srcs[j].prefix == f.srcs[j-1].prefix
		}
	}
}

// histSource lays out a histogram of family fam with label block labels.
func histSource(kind srcKind, slot int, fam, labels string, le []string) expoSource {
	head := fam + "_bucket{"
	if labels != "" {
		head += labels[1:len(labels)-1] + ","
	}
	return expoSource{
		kind: kind, typ: typHistogram, slot: slot,
		prefix: head + `le="`,
		sum:    fam + "_sum" + labels + " ",
		count:  fam + "_count" + labels + " ",
		le:     le,
	}
}

// emits reports whether the source has a line this scrape: series need
// a sample, and latency histograms an observation.
func (e *Exposition) emits(s *expoSource) bool {
	switch s.kind {
	case srcSeries:
		return s.series.Len() > 0
	case srcLatHist, srcLatMax:
		return e.snap.lat[s.slot].count > 0
	case srcLatWorst:
		return e.snap.lat[s.slot].count > 0 && e.snap.lat[s.slot].exemplar != 0
	}
	return true
}

// render appends the source's lines to b.
func (e *Exposition) render(b []byte, s *expoSource) []byte {
	switch s.kind {
	case srcSeries:
		last, _ := s.series.Last()
		return appendFloatLine(b, s.prefix, last.Value)
	case srcCounter:
		return appendUintLine(b, s.prefix, s.counter.Value())
	case srcHist:
		return appendHist(b, s, s.hist.BucketCounts(), s.hist.Count(), s.hist.Sum())
	case srcTraceMeter:
		return appendUintLine(b, s.prefix, e.snap.meters[s.slot])
	case srcLatHist:
		l := &e.snap.lat[s.slot]
		return appendHist(b, s, l.counts, l.count, l.sum)
	case srcLatMax:
		return appendFloatLine(b, s.prefix, e.snap.lat[s.slot].max)
	default: // srcLatWorst
		return appendUintLine(b, s.prefix, e.snap.lat[s.slot].exemplar)
	}
}

// writeFamily writes a family whose line order the layout fixed: the
// header before its first line, nothing when no source emits.
func (e *Exposition) writeFamily(c *chunkWriter, f *expoFamily) {
	header := false
	for i := range f.srcs {
		s := &f.srcs[i]
		if !e.emits(s) {
			continue
		}
		if !header {
			c.buf = append(c.buf, f.header...)
			header = true
		}
		c.buf = e.render(c.buf, s)
		c.flushIfFull()
	}
}

// writeMixed writes a mixed family: its type is that of the first
// source with a line, and unless that is a histogram its lines are
// sorted.
func (e *Exposition) writeMixed(c *chunkWriter, f *expoFamily) {
	var out []byte
	typ := promType(0)
	for i := range f.srcs {
		s := &f.srcs[i]
		if !e.emits(s) {
			continue
		}
		if len(out) == 0 {
			typ = s.typ
		}
		out = e.render(out, s)
	}
	if len(out) == 0 {
		return
	}
	// Lines hold no raw newline: label values escape it.
	var lines [][]byte
	for len(out) > 0 {
		n := bytes.IndexByte(out, '\n') + 1
		lines = append(lines, out[:n])
		out = out[n:]
	}
	if typ != typHistogram {
		sort.Slice(lines, func(i, j int) bool { return bytes.Compare(lines[i], lines[j]) < 0 })
	}
	c.buf = append(c.buf, "# TYPE "...)
	c.buf = append(c.buf, f.name...)
	c.buf = append(c.buf, ' ')
	c.buf = append(c.buf, promTypeNames[typ]...)
	c.buf = append(c.buf, '\n')
	for _, l := range lines {
		c.buf = append(c.buf, l...)
		c.flushIfFull()
	}
}

func appendFloatLine(b []byte, prefix string, v float64) []byte {
	b = append(b, prefix...)
	b = strconv.AppendFloat(b, v, 'g', -1, 64)
	return append(b, '\n')
}

func appendUintLine(b []byte, prefix string, v uint64) []byte {
	b = append(b, prefix...)
	b = strconv.AppendUint(b, v, 10)
	return append(b, '\n')
}

// appendHist appends cumulative buckets over the source's edges (counts
// may hold one more, overflow, entry), the +Inf bucket, sum and count.
func appendHist(b []byte, s *expoSource, counts []uint64, count uint64, sum float64) []byte {
	var cum uint64
	for i, le := range s.le {
		cum += counts[i]
		b = append(b, s.prefix...)
		b = append(b, le...)
		b = strconv.AppendUint(b, cum, 10)
		b = append(b, '\n')
	}
	b = append(b, s.prefix...)
	b = appendUintLine(b, `+Inf"} `, count)
	b = appendFloatLine(b, s.sum, sum)
	return appendUintLine(b, s.count, count)
}

// chunkSize is the write granularity: output accumulates in a buffer of
// this size, allocated per call and not retained, and is flushed when
// fewer than chunkSlack bytes remain.
const (
	chunkSize  = 64 << 10
	chunkSlack = 8 << 10
)

// chunkWriter batches exposition output into chunkSize writes and
// latches the first write error.
type chunkWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func (c *chunkWriter) flushIfFull() {
	if len(c.buf) >= chunkSize-chunkSlack {
		c.flush()
	}
}

func (c *chunkWriter) flush() {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
}

// promName maps an internal metric name onto (family, label-block). The
// label block is "" or "{k=\"v\",…}".
func promName(name string) (string, string) {
	segs := strings.Split(name, "/")
	var labels []string
	if len(segs) >= 3 && (segs[0] == "app" || segs[0] == "plo") {
		labels = append(labels, `app="`+escapeLabel(segs[1])+`"`)
		segs = append(segs[:1], segs[2:]...)
	}
	if len(segs) == 2 && segs[0] == "evictions" {
		labels = append(labels, `reason="`+escapeLabel(segs[1])+`"`)
		segs = segs[:1]
	}
	if len(segs) > 1 {
		if _, err := resource.ParseKind(segs[len(segs)-1]); err == nil {
			labels = append(labels, `resource="`+escapeLabel(segs[len(segs)-1])+`"`)
			segs = segs[:len(segs)-1]
		}
	}
	fam := "evolve_" + mangle(strings.Join(segs, "_"))
	if len(labels) == 0 {
		return fam, ""
	}
	sort.Strings(labels)
	return fam, "{" + strings.Join(labels, ",") + "}"
}

// mangle rewrites a name into the Prometheus identifier charset
// [a-zA-Z0-9_].
func mangle(s string) string {
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// escapeLabel escapes a label value per the exposition format.
func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, `"`, `\"`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// formatValue renders a float sample value; NaN and ±Inf are legal in
// the exposition format and strconv renders them canonically.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
