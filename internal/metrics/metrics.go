// Package metrics provides the telemetry primitives the EVOLVE control
// loops consume: time series with windowed statistics, streaming
// log-bucketed histograms with percentile queries, counters and a named
// registry for experiment snapshots.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Sample is one timestamped observation.
type Sample struct {
	At    time.Duration // virtual time of the observation
	Value float64
}

// Series is an append-only time series. It keeps every sample; experiment
// horizons are short enough (hours of virtual time at seconds-scale
// sampling) that this stays small, and it lets figures re-render any
// window after the fact.
type Series struct {
	Name    string
	samples []Sample

	// Percentile queries sort a window of values; summaries ask for
	// several percentiles (and re-ask across tables sharing a cached
	// run), so the sorted window is memoised per (from, to, len). The
	// mutex only guards the memo: appends stay single-threaded per the
	// owning simulation, but finished runs may be read concurrently by
	// parallel table builders.
	sortMu     sync.Mutex
	sortedFrom time.Duration
	sortedTo   time.Duration
	sortedLen  int
	sorted     []float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation. Samples must arrive in non-decreasing time
// order; out-of-order appends panic since they indicate a model bug.
func (s *Series) Add(at time.Duration, v float64) {
	if n := len(s.samples); n > 0 && at < s.samples[n-1].At {
		panic(fmt.Sprintf("metrics: out-of-order sample on %q: %v after %v", s.Name, at, s.samples[n-1].At))
	}
	s.samples = append(s.samples, Sample{at, v})
}

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Samples returns the underlying samples; callers must not modify it.
func (s *Series) Samples() []Sample { return s.samples }

// Last returns the most recent sample, or false when empty.
func (s *Series) Last() (Sample, bool) {
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// Window returns the samples with At in (from, to]. The result is a
// sub-slice of the series' backing array — no copy — so callers must not
// modify it.
func (s *Series) Window(from, to time.Duration) []Sample {
	lo := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].At > from })
	hi := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].At > to })
	return s.samples[lo:hi]
}

// Stats summarises a set of observations.
type Stats struct {
	Count          int
	Mean, Min, Max float64
	Std            float64
}

// WindowStats computes summary statistics over (from, to].
func (s *Series) WindowStats(from, to time.Duration) Stats {
	return computeStats(s.Window(from, to))
}

// AllStats computes summary statistics over the whole series.
func (s *Series) AllStats() Stats { return computeStats(s.samples) }

func computeStats(w []Sample) Stats {
	if len(w) == 0 {
		return Stats{}
	}
	st := Stats{Count: len(w), Min: math.Inf(1), Max: math.Inf(-1)}
	var sum float64
	for _, x := range w {
		sum += x.Value
		if x.Value < st.Min {
			st.Min = x.Value
		}
		if x.Value > st.Max {
			st.Max = x.Value
		}
	}
	st.Mean = sum / float64(len(w))
	var ss float64
	for _, x := range w {
		d := x.Value - st.Mean
		ss += d * d
	}
	st.Std = math.Sqrt(ss / float64(len(w)))
	return st
}

// Percentile returns the p-th percentile (0..100) of the window (from, to]
// by exact sort; returns 0 on an empty window. Repeated queries against
// the same window reuse one sorted copy instead of re-sorting per call.
func (s *Series) Percentile(from, to time.Duration, p float64) float64 {
	vals := s.sortedWindow(from, to)
	return percentileSorted(vals, p)
}

// Percentiles evaluates several percentile points against one sorted
// window; the window is sorted at most once.
func (s *Series) Percentiles(from, to time.Duration, ps ...float64) []float64 {
	vals := s.sortedWindow(from, to)
	out := make([]float64, len(ps))
	for i, p := range ps {
		out[i] = percentileSorted(vals, p)
	}
	return out
}

// sortedWindow returns the sorted values of (from, to], memoising the
// last window. Appends invalidate the memo via the length check.
func (s *Series) sortedWindow(from, to time.Duration) []float64 {
	s.sortMu.Lock()
	defer s.sortMu.Unlock()
	if s.sorted != nil && s.sortedFrom == from && s.sortedTo == to && s.sortedLen == len(s.samples) {
		return s.sorted
	}
	w := s.Window(from, to)
	vals := make([]float64, len(w))
	for i, x := range w {
		vals[i] = x.Value
	}
	sort.Float64s(vals)
	s.sortedFrom, s.sortedTo, s.sortedLen, s.sorted = from, to, len(s.samples), vals
	return vals
}

func percentileSorted(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	if p <= 0 {
		return vals[0]
	}
	if p >= 100 {
		return vals[len(vals)-1]
	}
	rank := p / 100 * float64(len(vals)-1)
	lo := int(math.Floor(rank))
	frac := rank - float64(lo)
	if lo+1 >= len(vals) {
		return vals[len(vals)-1]
	}
	return vals[lo]*(1-frac) + vals[lo+1]*frac
}

// FractionAbove returns the fraction of samples in (from, to] whose value
// exceeds threshold. Used for PLO-violation accounting.
func (s *Series) FractionAbove(from, to time.Duration, threshold float64) float64 {
	w := s.Window(from, to)
	if len(w) == 0 {
		return 0
	}
	n := 0
	for _, x := range w {
		if x.Value > threshold {
			n++
		}
	}
	return float64(n) / float64(len(w))
}

// TimeWeightedMean integrates the series as a step function over
// (from, to] and divides by the span; appropriate for utilisation/
// allocation series that hold a value until the next sample.
func (s *Series) TimeWeightedMean(from, to time.Duration) float64 {
	if to <= from || len(s.samples) == 0 {
		return 0
	}
	// Step value entering the window: the last sample at or before from.
	idx := sort.Search(len(s.samples), func(i int) bool { return s.samples[i].At > from })
	var cur float64
	if idx > 0 {
		cur = s.samples[idx-1].Value
	}
	t := from
	var area float64
	for _, x := range s.samples[idx:] {
		if x.At > to {
			break
		}
		area += cur * float64(x.At-t)
		cur, t = x.Value, x.At
	}
	area += cur * float64(to-t)
	return area / float64(to-from)
}

// Histogram is a streaming log-bucketed histogram for positive values
// (latencies, sizes). Buckets grow geometrically from min to max with the
// given resolution; values outside the range clamp to the end buckets.
type Histogram struct {
	min, max float64
	ratio    float64 // bucket width multiplier
	counts   []uint64
	total    uint64
	sum      float64
	vmin     float64
	vmax     float64
}

// NewHistogram returns a histogram covering [min, max] with bucketsPerDecade
// buckets per factor-of-10. min must be > 0 and max > min.
func NewHistogram(min, max float64, bucketsPerDecade int) *Histogram {
	if min <= 0 || max <= min || bucketsPerDecade <= 0 {
		panic("metrics: invalid histogram parameters")
	}
	ratio := math.Pow(10, 1/float64(bucketsPerDecade))
	n := int(math.Ceil(math.Log(max/min)/math.Log(ratio))) + 1
	return &Histogram{min: min, max: max, ratio: ratio, counts: make([]uint64, n), vmin: math.Inf(1), vmax: math.Inf(-1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.total++
	h.sum += v
	if v < h.vmin {
		h.vmin = v
	}
	if v > h.vmax {
		h.vmax = v
	}
	h.counts[h.bucket(v)]++
}

func (h *Histogram) bucket(v float64) int {
	if v <= h.min {
		return 0
	}
	i := int(math.Log(v/h.min) / math.Log(h.ratio))
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.total }

// Sum returns the exact sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum }

// Geometry identifies a histogram's bucket layout: histograms with equal
// geometry share every bucket edge, so renderers can format the edges
// once per geometry rather than once per histogram.
type Geometry struct {
	Min, Ratio float64
	N          int // number of finite buckets
}

// Edge returns the inclusive upper edge of bucket i.
func (g Geometry) Edge(i int) float64 { return g.Min * math.Pow(g.Ratio, float64(i+1)) }

// Geometry returns the histogram's bucket layout.
func (h *Histogram) Geometry() Geometry {
	return Geometry{Min: h.min, Ratio: h.ratio, N: len(h.counts)}
}

// BucketCounts returns the per-bucket (non-cumulative) counts, one per
// Geometry edge; callers must not modify it. The last edge does not
// cover +Inf: a Prometheus exposition adds that bucket from Count.
func (h *Histogram) BucketCounts() []uint64 { return h.counts }

// Mean returns the exact mean of all observations.
func (h *Histogram) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Min and Max return the exact observed extrema (0 when empty).
func (h *Histogram) Min() float64 {
	if h.total == 0 {
		return 0
	}
	return h.vmin
}

// Max returns the exact maximum observation (0 when empty).
func (h *Histogram) Max() float64 {
	if h.total == 0 {
		return 0
	}
	return h.vmax
}

// Quantile returns the q-th quantile (0..1) with log-bucket resolution.
func (h *Histogram) Quantile(q float64) float64 {
	if h.total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			// Upper edge of bucket i, clamped to observed max.
			return math.Min(h.Geometry().Edge(i), h.vmax)
		}
	}
	return h.vmax
}

// Reset clears all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i] = 0
	}
	h.total, h.sum = 0, 0
	h.vmin, h.vmax = math.Inf(1), math.Inf(-1)
}

// Counter is a monotonically increasing event count.
type Counter struct {
	Name string
	n    uint64
}

// Inc adds one. Add adds delta. Value reads the count.
func (c *Counter) Inc()             { c.n++ }
func (c *Counter) Add(delta uint64) { c.n += delta }
func (c *Counter) Value() uint64    { return c.n }

// Registry names and owns a set of series, histograms and counters for one
// simulation run. Name resolution (Series/Histogram/Counter lookup and
// lazy creation) is guarded by a mutex because the sharded kernel's
// parallel tick phases may resolve instruments concurrently; writes to
// a resolved instrument remain single-writer per instrument, which is
// the discipline the tick phases follow.
type Registry struct {
	mu         sync.Mutex
	series     map[string]*Series
	histograms map[string]*Histogram
	counters   map[string]*Counter

	// gen counts changes to the instrument set (and checkpoint loads,
	// which may also reshape histograms in place), so renderers that
	// cache a per-instrument layout know when to rebuild it.
	gen atomic.Uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		series:     make(map[string]*Series),
		histograms: make(map[string]*Histogram),
		counters:   make(map[string]*Counter),
	}
}

// Series returns (creating if needed) the named series.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	s, ok := r.series[name]
	if !ok {
		s = NewSeries(name)
		r.series[name] = s
		r.gen.Add(1)
	}
	r.mu.Unlock()
	return s
}

// Histogram returns (creating if needed) the named histogram. The
// parameters are only applied on first creation.
func (r *Registry) Histogram(name string, min, max float64, bucketsPerDecade int) *Histogram {
	r.mu.Lock()
	h, ok := r.histograms[name]
	if !ok {
		h = NewHistogram(min, max, bucketsPerDecade)
		r.histograms[name] = h
		r.gen.Add(1)
	}
	r.mu.Unlock()
	return h
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{Name: name}
		r.counters[name] = c
		r.gen.Add(1)
	}
	r.mu.Unlock()
	return c
}

// Generation returns a number that changes whenever an instrument is
// created or a checkpoint is loaded into the registry; equal values
// mean the same instruments with the same histogram geometries.
func (r *Registry) Generation() uint64 { return r.gen.Load() }

// SeriesNames returns the sorted names of all series.
func (r *Registry) SeriesNames() []string {
	names := make([]string, 0, len(r.series))
	for n := range r.series {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CounterNames returns the sorted names of all counters.
func (r *Registry) CounterNames() []string {
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// HistogramNames returns the sorted names of all histograms.
func (r *Registry) HistogramNames() []string {
	names := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// GetHistogram returns the named histogram without creating it.
func (r *Registry) GetHistogram(name string) (*Histogram, bool) {
	h, ok := r.histograms[name]
	return h, ok
}

// HasSeries reports whether the named series exists without creating it.
func (r *Registry) HasSeries(name string) bool {
	_, ok := r.series[name]
	return ok
}
