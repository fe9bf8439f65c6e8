package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"evolve/internal/metrics"
	"evolve/internal/race"
)

func TestWriteMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Series("app/web/latency-mean").Add(time.Second, 0.02)
	reg.Series("app/web/latency-mean").Add(2*time.Second, 0.05)
	reg.Series("app/web/alloc/cpu").Add(time.Second, 4000)
	reg.Series("cluster/usage/memory").Add(time.Second, 0.42)
	reg.Counter("sched/binds").Inc()
	reg.Counter("sched/binds").Inc()
	reg.Counter("plo/web/violations").Inc()
	reg.Counter("evictions/preempted").Inc()
	h := reg.Histogram("app/web/sli-hist", 1e-4, 1e3, 10)
	h.Observe(0.01)
	h.Observe(0.02)
	h.Observe(0.5)

	tr := New(8)
	tr.Record(Event{Kind: KindSched, Verb: VerbBind})

	var sb strings.Builder
	if err := WriteMetrics(&sb, reg, tr); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE evolve_app_latency_mean gauge",
		`evolve_app_latency_mean{app="web"} 0.05`, // latest sample, not the first
		`evolve_app_alloc{app="web",resource="cpu"} 4000`,
		`evolve_cluster_usage{resource="memory"} 0.42`,
		"# TYPE evolve_sched_binds_total counter",
		"evolve_sched_binds_total 2",
		`evolve_plo_violations_total{app="web"} 1`,
		`evolve_evictions_total{reason="preempted"} 1`,
		"# TYPE evolve_app_sli_hist histogram",
		`le="+Inf"} 3`,
		`evolve_app_sli_hist_count{app="web"} 3`,
		`evolve_app_sli_hist_sum{app="web"} 0.53`,
		"evolve_trace_events_total 1",
		"evolve_trace_dropped_total 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}

	// Structural checks: every non-comment line is "name[{labels}] value",
	// every family has exactly one TYPE line, output is deterministic.
	types := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Errorf("malformed TYPE line %q", line)
				continue
			}
			types[parts[2]]++
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
	for fam, n := range types {
		if n != 1 {
			t.Errorf("family %s has %d TYPE lines", fam, n)
		}
	}
	var sb2 strings.Builder
	if err := WriteMetrics(&sb2, reg, tr); err != nil {
		t.Fatal(err)
	}
	if sb2.String() != out {
		t.Error("exposition is not deterministic across calls")
	}
}

func TestWriteMetricsDisabledTracer(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Series("cluster/pods").Add(time.Second, 3)
	var sb strings.Builder
	if err := WriteMetrics(&sb, reg, Nop()); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(sb.String(), "evolve_trace_") {
		t.Error("disabled tracer leaked trace meters into the exposition")
	}
	if !strings.Contains(sb.String(), "evolve_cluster_pods 3") {
		t.Errorf("missing series gauge:\n%s", sb.String())
	}
}

func TestPromName(t *testing.T) {
	cases := []struct {
		in, fam, labels string
	}{
		{"app/web/latency-mean", "evolve_app_latency_mean", `{app="web"}`},
		{"app/web/alloc/cpu", "evolve_app_alloc", `{app="web",resource="cpu"}`},
		{"cluster/usage/memory", "evolve_cluster_usage", `{resource="memory"}`},
		{"plo/web/violations", "evolve_plo_violations", `{app="web"}`},
		{"evictions/preempted", "evolve_evictions", `{reason="preempted"}`},
		{"sched/binds", "evolve_sched_binds", ""},
		{"cluster/pods", "evolve_cluster_pods", ""},
		{"batch/makespan", "evolve_batch_makespan", ""},
	}
	for _, c := range cases {
		fam, labels := promName(c.in)
		if fam != c.fam || labels != c.labels {
			t.Errorf("promName(%q) = %q,%q; want %q,%q", c.in, fam, labels, c.fam, c.labels)
		}
	}
}

// writeMetricsOracle is the original string-building renderer, kept as
// the reference the layout-based Exposition must match byte for byte:
// it re-derives every name per call, builds one string per sample and
// sorts non-histogram families by the full line.
func writeMetricsOracle(w io.Writer, reg *metrics.Registry, tr *Tracer) error {
	type promFamily struct {
		typ     string
		samples []string
	}
	fams := map[string]*promFamily{}
	add := func(name, typ string, sample string) {
		f, ok := fams[name]
		if !ok {
			f = &promFamily{typ: typ}
			fams[name] = f
		}
		f.samples = append(f.samples, sample)
	}
	mergeLabels := func(block, extra string) string {
		if block == "" {
			return "{" + extra + "}"
		}
		return strings.TrimSuffix(block, "}") + "," + extra + "}"
	}
	boolGauge := func(b bool) string {
		if b {
			return "1"
		}
		return "0"
	}

	for _, name := range reg.SeriesNames() {
		s := reg.Series(name)
		last, ok := s.Last()
		if !ok {
			continue
		}
		fam, labels := promName(name)
		add(fam, "gauge", fam+labels+" "+formatValue(last.Value))
	}
	for _, name := range reg.CounterNames() {
		fam, labels := promName(name)
		fam += "_total"
		add(fam, "counter", fam+labels+" "+strconv.FormatUint(reg.Counter(name).Value(), 10))
	}
	for _, name := range reg.HistogramNames() {
		h, ok := reg.GetHistogram(name)
		if !ok {
			continue
		}
		fam, labels := promName(name)
		var cum uint64
		for i, c := range h.BucketCounts() {
			cum += c
			le := h.Geometry().Edge(i)
			add(fam, "histogram", fam+"_bucket"+mergeLabels(labels, `le="`+formatValue(le)+`"`)+" "+strconv.FormatUint(cum, 10))
		}
		add(fam, "histogram", fam+"_bucket"+mergeLabels(labels, `le="+Inf"`)+" "+strconv.FormatUint(h.Count(), 10))
		add(fam, "histogram", fam+"_sum"+labels+" "+formatValue(h.Sum()))
		add(fam, "histogram", fam+"_count"+labels+" "+strconv.FormatUint(h.Count(), 10))
	}
	if tr.Enabled() {
		add("evolve_trace_events_total", "counter",
			"evolve_trace_events_total "+strconv.FormatUint(tr.Events(), 10))
		add("evolve_trace_dropped_total", "counter",
			"evolve_trace_dropped_total "+strconv.FormatUint(tr.Dropped(), 10))
		add("evolve_trace_spans_total", "counter",
			"evolve_trace_spans_total "+strconv.FormatUint(tr.Spans(), 10))
		add("evolve_trace_span_dropped_total", "counter",
			"evolve_trace_span_dropped_total "+strconv.FormatUint(tr.SpansDropped(), 10))
		add("evolve_trace_sink_error", "gauge",
			"evolve_trace_sink_error "+boolGauge(tr.SinkErr() != nil))
		add("evolve_trace_span_sink_error", "gauge",
			"evolve_trace_span_sink_error "+boolGauge(tr.SpanSinkErr() != nil))
		for _, h := range tr.LatencySnapshot() {
			fam := "evolve_latency_" + mangle(h.Name) + "_seconds"
			var cum uint64
			for i, bound := range h.Bounds {
				cum += h.Counts[i]
				add(fam, "histogram", fam+`_bucket{le="`+formatValue(bound)+`"} `+strconv.FormatUint(cum, 10))
			}
			add(fam, "histogram", fam+`_bucket{le="+Inf"} `+strconv.FormatUint(h.Count, 10))
			add(fam, "histogram", fam+"_sum "+formatValue(h.Sum))
			add(fam, "histogram", fam+"_count "+strconv.FormatUint(h.Count, 10))
			add(fam+"_max", "gauge", fam+"_max "+formatValue(h.Max))
			if h.Exemplar != 0 {
				add(fam+"_worst_span", "gauge", fam+"_worst_span "+strconv.FormatUint(h.Exemplar, 10))
			}
		}
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", n, f.typ); err != nil {
			return err
		}
		if f.typ != "histogram" {
			sort.Strings(f.samples)
		}
		for _, s := range f.samples {
			if _, err := io.WriteString(w, s+"\n"); err != nil {
				return err
			}
		}
	}
	return nil
}

// propApps are app names chosen to stress label escaping and sorting:
// spaces, quotes, backslashes, newlines, braces, a leading digit and
// names that share a prefix.
var propApps = []string{
	"web", "web2", "a b", `q"uote`, `back\slash`, "new\nline", "br}ace", `x"} 1`,
	"9lives", "", "svc-1", "svc-10", "svc_1",
}

// propNames are internal-name templates (%s is an app). Several pairs
// mangle onto one family: latency-mean/latency_mean, a series named like
// a counter's _total family, a series and a histogram on sli-hist, a
// registry histogram on a tracer latency family, and a registry counter
// on a tracer meter.
var propNames = []string{
	"app/%s/latency-mean", "app/%s/latency_mean", "app/%s/alloc/cpu", "app/%s/alloc/memory",
	"app/%s/sli-hist", "plo/%s/violations", "plo/%s/burn-rate", "evictions/%s",
	"cluster/usage/memory", "cluster/pods", "sched/binds", "sched/binds_total",
	"latency/time_to_ready_seconds", "latency/phase_a_b_seconds", "trace/events", "1st/metric",
}

var propGeometries = [][3]float64{{1e-4, 1e3, 10}, {1e-3, 10, 4}, {0.5, 2, 1}}

var propValues = []float64{0, 1, -1, 0.5, 1e-9, 12345.678, 1e21, math.Inf(1), math.NaN()}

// mutateRegistry creates a few random instruments and updates existing
// ones, so successive scrapes see new instruments, first samples and
// moved values.
func mutateRegistry(rng *rand.Rand, reg *metrics.Registry, tr *Tracer, at *time.Duration) {
	for n := rng.Intn(6); n > 0; n-- {
		name := propNames[rng.Intn(len(propNames))]
		if strings.Contains(name, "%s") {
			name = fmt.Sprintf(name, propApps[rng.Intn(len(propApps))])
		}
		switch rng.Intn(3) {
		case 0:
			reg.Series(name) // possibly left without samples
		case 1:
			reg.Counter(name)
		default:
			g := propGeometries[rng.Intn(len(propGeometries))]
			reg.Histogram(name, g[0], g[1], int(g[2])) // possibly left empty
		}
	}
	*at += time.Second
	for _, name := range reg.SeriesNames() {
		if rng.Intn(3) == 0 {
			reg.Series(name).Add(*at, propValues[rng.Intn(len(propValues))])
		}
	}
	for _, name := range reg.CounterNames() {
		reg.Counter(name).Add(uint64(rng.Intn(3)))
	}
	for _, name := range reg.HistogramNames() {
		h, _ := reg.GetHistogram(name)
		for k := rng.Intn(3); k > 0; k-- {
			h.Observe(math.Pow(10, rng.Float64()*8-5))
		}
	}
	if !tr.Enabled() {
		return
	}
	tr.Record(Event{At: *at, Kind: KindSched, Verb: VerbBind})
	if rng.Intn(2) == 0 {
		tr.ObserveLatency(LatencyKind(rng.Intn(int(NumLatencyKinds))), rng.Float64()*100, uint64(rng.Intn(3)))
	}
	if rng.Intn(3) == 0 {
		// Phase indices materialise lazily, leaving unobserved slots.
		idx := rng.Intn(4)
		tr.ObservePhaseLatency(idx, []string{"a-b", "a_b", "p2", "p3"}[idx], rng.Float64()*1e-3, uint64(rng.Intn(2)))
	}
}

// TestExpositionMatchesOracle is the equivalence property: on random
// registries that grow between scrapes, one long-lived Exposition, a
// fresh WriteMetrics and the original renderer agree byte for byte.
func TestExpositionMatchesOracle(t *testing.T) {
	for seed := int64(1); seed <= 150; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := metrics.NewRegistry()
		tr := Nop()
		if seed%3 != 0 {
			tr = New(4)
		}
		var e Exposition
		var at time.Duration
		for round := 0; round < 8; round++ {
			mutateRegistry(rng, reg, tr, &at)
			var want, cached, fresh bytes.Buffer
			if err := writeMetricsOracle(&want, reg, tr); err != nil {
				t.Fatal(err)
			}
			if err := e.Write(&cached, reg, tr); err != nil {
				t.Fatal(err)
			}
			if err := WriteMetrics(&fresh, reg, tr); err != nil {
				t.Fatal(err)
			}
			if cached.String() != want.String() {
				t.Fatalf("seed %d round %d: cached layout differs from oracle\n%s", seed, round, firstDiff(cached.String(), want.String()))
			}
			if fresh.String() != want.String() {
				t.Fatalf("seed %d round %d: fresh layout differs from oracle\n%s", seed, round, firstDiff(fresh.String(), want.String()))
			}
		}
	}
}

// TestExpositionSortOrder pins the case the layout cannot presort: two
// internal names rendering one sample prefix order by value, exactly as
// sorting the full lines did.
func TestExpositionSortOrder(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Series("app/web/latency-mean").Add(time.Second, 9)
	reg.Series("app/web/latency_mean").Add(time.Second, 10)
	reg.Series("app/a b/latency-mean").Add(time.Second, 1)
	var got, want bytes.Buffer
	if err := WriteMetrics(&got, reg, Nop()); err != nil {
		t.Fatal(err)
	}
	if err := writeMetricsOracle(&want, reg, Nop()); err != nil {
		t.Fatal(err)
	}
	const exp = "# TYPE evolve_app_latency_mean gauge\n" +
		`evolve_app_latency_mean{app="a b"} 1` + "\n" +
		`evolve_app_latency_mean{app="web"} 10` + "\n" +
		`evolve_app_latency_mean{app="web"} 9` + "\n"
	if got.String() != exp || want.String() != exp {
		t.Fatalf("got\n%s\noracle\n%s\nwant\n%s", got.String(), want.String(), exp)
	}
}

func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) || i < len(w); i++ {
		var gl, wl string
		if i < len(g) {
			gl = g[i]
		}
		if i < len(w) {
			wl = w[i]
		}
		if gl != wl {
			return fmt.Sprintf("line %d: got %q, want %q", i+1, gl, wl)
		}
	}
	return "no line differs"
}

// scrapeRegistry builds a registry shaped like a running cluster's:
// per app the series, counters and SLI histogram the cluster records,
// plus a traced run's latency histograms.
func scrapeRegistry(apps int) (*metrics.Registry, *Tracer) {
	reg := metrics.NewRegistry()
	tr := New(64)
	for i := 0; i < apps; i++ {
		pfx := fmt.Sprintf("app/svc-%d/", i)
		for _, s := range []string{"latency-mean", "latency-p99", "throughput", "replicas", "alloc/cpu", "alloc/memory", "usage/cpu"} {
			reg.Series(pfx+s).Add(time.Second, float64(i)+0.25)
		}
		reg.Counter(fmt.Sprintf("plo/svc-%d/violations", i)).Add(uint64(i))
		h := reg.Histogram(pfx+"sli-hist", 1e-4, 1e3, 10)
		h.Observe(0.01 * float64(i+1))
	}
	reg.Counter("sched/binds").Add(42)
	reg.Counter("evictions/preempted").Inc()
	for k := LatencyKind(0); k < NumLatencyKinds; k++ {
		tr.ObserveLatency(k, 3, 7)
	}
	tr.ObservePhaseLatency(0, "p1", 1e-4, 9)
	return reg, tr
}

// TestWriteMetricsAllocs gates the steady-state scrape: with the layout
// built, a scrape allocates a small constant (its chunk buffer), the
// same for 16 apps as for 128.
func TestWriteMetricsAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	var per [2]float64
	for i, apps := range []int{16, 128} {
		reg, tr := scrapeRegistry(apps)
		var e Exposition
		if err := e.Write(io.Discard, reg, tr); err != nil {
			t.Fatal(err)
		}
		per[i] = testing.AllocsPerRun(20, func() {
			if err := e.Write(io.Discard, reg, tr); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("steady scrape, %d apps: %.1f allocs", apps, per[i])
		if maxAllocs := 8.0; per[i] > maxAllocs {
			t.Errorf("steady scrape of %d apps allocates %.1f times, want <= %.0f", apps, per[i], maxAllocs)
		}
	}
	if per[0] != per[1] {
		t.Errorf("steady scrape allocations grow with the registry: %.1f at 16 apps, %.1f at 128", per[0], per[1])
	}
}

func BenchmarkWriteMetrics(b *testing.B) {
	for _, apps := range []int{16, 128} {
		b.Run(fmt.Sprintf("apps-%d", apps), func(b *testing.B) {
			reg, tr := scrapeRegistry(apps)
			var e Exposition
			var n countWriter
			if err := e.Write(&n, reg, tr); err != nil { // build the layout
				b.Fatal(err)
			}
			n = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := e.Write(&n, reg, tr); err != nil {
					b.Fatal(err)
				}
			}
			b.SetBytes(int64(n) / int64(b.N))
		})
	}
}

type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
