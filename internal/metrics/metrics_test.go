package metrics

import (
	"bytes"
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"evolve/internal/ckpt"
)

func sec(n float64) time.Duration { return time.Duration(n * float64(time.Second)) }

func TestSeriesAddAndWindow(t *testing.T) {
	s := NewSeries("lat")
	for i := 1; i <= 10; i++ {
		s.Add(sec(float64(i)), float64(i))
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
	w := s.Window(sec(3), sec(7))
	if len(w) != 4 || w[0].Value != 4 || w[3].Value != 7 {
		t.Errorf("Window(3,7] = %v", w)
	}
	// Window boundaries: (from, to].
	if len(s.Window(sec(0), sec(1))) != 1 {
		t.Error("to boundary should be inclusive")
	}
	if len(s.Window(sec(10), sec(20))) != 0 {
		t.Error("from boundary should be exclusive")
	}
}

func TestSeriesOutOfOrderPanics(t *testing.T) {
	s := NewSeries("x")
	s.Add(sec(5), 1)
	defer func() {
		if recover() == nil {
			t.Error("out-of-order Add should panic")
		}
	}()
	s.Add(sec(4), 2)
}

func TestSeriesLast(t *testing.T) {
	s := NewSeries("x")
	if _, ok := s.Last(); ok {
		t.Error("empty series should have no last")
	}
	s.Add(sec(1), 10)
	s.Add(sec(2), 20)
	last, ok := s.Last()
	if !ok || last.Value != 20 || last.At != sec(2) {
		t.Errorf("Last = %v, %v", last, ok)
	}
}

func TestWindowStats(t *testing.T) {
	s := NewSeries("x")
	for i, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(sec(float64(i)), v)
	}
	st := s.AllStats()
	if st.Count != 8 || st.Mean != 5 || st.Min != 2 || st.Max != 9 {
		t.Errorf("stats = %+v", st)
	}
	if math.Abs(st.Std-2) > 1e-9 {
		t.Errorf("Std = %v, want 2", st.Std)
	}
	empty := s.WindowStats(sec(100), sec(200))
	if empty.Count != 0 || empty.Mean != 0 {
		t.Errorf("empty stats = %+v", empty)
	}
}

func TestPercentile(t *testing.T) {
	s := NewSeries("x")
	for i := 1; i <= 100; i++ {
		s.Add(sec(float64(i)), float64(i))
	}
	if p := s.Percentile(sec(0), sec(100), 50); math.Abs(p-50.5) > 1e-9 {
		t.Errorf("p50 = %v", p)
	}
	if p := s.Percentile(sec(0), sec(100), 0); p != 1 {
		t.Errorf("p0 = %v", p)
	}
	if p := s.Percentile(sec(0), sec(100), 100); p != 100 {
		t.Errorf("p100 = %v", p)
	}
	if p := s.Percentile(sec(200), sec(300), 50); p != 0 {
		t.Errorf("empty percentile = %v", p)
	}
}

func TestFractionAbove(t *testing.T) {
	s := NewSeries("x")
	for i := 1; i <= 10; i++ {
		s.Add(sec(float64(i)), float64(i))
	}
	if f := s.FractionAbove(sec(0), sec(10), 7); math.Abs(f-0.3) > 1e-9 {
		t.Errorf("FractionAbove = %v, want 0.3", f)
	}
	if f := s.FractionAbove(sec(0), sec(10), 100); f != 0 {
		t.Errorf("FractionAbove high threshold = %v", f)
	}
	if f := s.FractionAbove(sec(50), sec(60), 0); f != 0 {
		t.Errorf("empty window = %v", f)
	}
}

func TestTimeWeightedMean(t *testing.T) {
	s := NewSeries("alloc")
	s.Add(0, 100)
	s.Add(sec(10), 200) // value 100 for 10s, then 200
	got := s.TimeWeightedMean(0, sec(20))
	if math.Abs(got-150) > 1e-9 {
		t.Errorf("TimeWeightedMean = %v, want 150", got)
	}
	// Window starting mid-way picks up the step value entering the window.
	got = s.TimeWeightedMean(sec(5), sec(15))
	if math.Abs(got-150) > 1e-9 {
		t.Errorf("TimeWeightedMean mid = %v, want 150", got)
	}
	if s.TimeWeightedMean(sec(5), sec(5)) != 0 {
		t.Error("empty span should be 0")
	}
}

func TestTimeWeightedMeanConstantProperty(t *testing.T) {
	// Property: for a constant series the time-weighted mean equals the
	// constant regardless of sample spacing.
	prop := func(raw []uint8, c uint8) bool {
		if len(raw) == 0 {
			return true
		}
		s := NewSeries("c")
		v := float64(c)
		at := time.Duration(0)
		s.Add(0, v)
		for _, r := range raw {
			at += time.Duration(r+1) * time.Second
			s.Add(at, v)
		}
		got := s.TimeWeightedMean(0, at+time.Second)
		return math.Abs(got-v) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(1e-3, 100, 10)
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) / 100) // 0.01 .. 10
	}
	if h.Count() != 1000 {
		t.Errorf("Count = %d", h.Count())
	}
	if m := h.Mean(); math.Abs(m-5.005) > 1e-9 {
		t.Errorf("Mean = %v", m)
	}
	if h.Min() != 0.01 || h.Max() != 10 {
		t.Errorf("Min/Max = %v/%v", h.Min(), h.Max())
	}
	// Median should be near 5 within one log bucket (~26% at 10/decade).
	q := h.Quantile(0.5)
	if q < 4 || q > 7 {
		t.Errorf("Quantile(0.5) = %v, want ≈5", q)
	}
	// p100 clamps to observed max.
	if q := h.Quantile(1); q != 10 {
		t.Errorf("Quantile(1) = %v, want 10", q)
	}
}

func TestHistogramClampsOutOfRange(t *testing.T) {
	h := NewHistogram(1, 10, 5)
	h.Observe(0.0001)
	h.Observe(1e9)
	if h.Count() != 2 {
		t.Errorf("Count = %d", h.Count())
	}
	if h.Max() != 1e9 || h.Min() != 0.0001 {
		t.Error("exact min/max should survive clamping")
	}
}

func TestHistogramEmptyAndReset(t *testing.T) {
	h := NewHistogram(1, 10, 5)
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Error("empty histogram should report zeros")
	}
	h.Observe(5)
	h.Reset()
	if h.Count() != 0 || h.Mean() != 0 {
		t.Error("Reset should clear state")
	}
}

func TestHistogramBadParamsPanic(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 5) },
		func() { NewHistogram(10, 1, 5) },
		func() { NewHistogram(1, 10, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid params should panic")
				}
			}()
			f()
		}()
	}
}

func TestHistogramQuantileMonotone(t *testing.T) {
	h := NewHistogram(1e-3, 1e3, 20)
	g := []float64{0.004, 0.05, 0.3, 1.2, 7, 42, 900, 0.02, 0.02, 5}
	for _, v := range g {
		h.Observe(v)
	}
	prev := 0.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		cur := h.Quantile(q)
		if cur < prev-1e-12 {
			t.Fatalf("quantile not monotone at %v: %v < %v", q, cur, prev)
		}
		prev = cur
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("Counter = %d", c.Value())
	}
}

func TestRegistry(t *testing.T) {
	r := NewRegistry()
	s1 := r.Series("a")
	s2 := r.Series("a")
	if s1 != s2 {
		t.Error("Series should be idempotent")
	}
	r.Series("b")
	names := r.SeriesNames()
	if !sort.StringsAreSorted(names) || len(names) != 2 {
		t.Errorf("SeriesNames = %v", names)
	}
	if !r.HasSeries("a") || r.HasSeries("zzz") {
		t.Error("HasSeries wrong")
	}
	h1 := r.Histogram("h", 1, 10, 5)
	h2 := r.Histogram("h", 2, 20, 9) // params ignored on reuse
	if h1 != h2 {
		t.Error("Histogram should be idempotent")
	}
	c1 := r.Counter("c")
	c1.Inc()
	if r.Counter("c").Value() != 1 {
		t.Error("Counter should be idempotent")
	}
	if len(r.CounterNames()) != 1 {
		t.Errorf("CounterNames = %v", r.CounterNames())
	}
	// The generation moves once per created instrument, never on lookup.
	if g := r.Generation(); g != 4 {
		t.Errorf("Generation = %d after creating 4 instruments", g)
	}
}

// TestRegistryGenerationCkptLoad: a checkpoint load may inject or
// reshape histograms in place, so it always moves the generation.
func TestRegistryGenerationCkptLoad(t *testing.T) {
	src := NewRegistry()
	src.Histogram("h", 1e-3, 10, 4).Observe(0.5)
	var buf bytes.Buffer
	w := ckpt.NewWriter(&buf)
	src.CkptSave(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dst := NewRegistry()
	dst.Histogram("h", 1, 100, 2) // same name, other geometry
	before := dst.Generation()
	cr, err := ckpt.NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.CkptLoad(cr); err != nil {
		t.Fatal(err)
	}
	if dst.Generation() == before {
		t.Error("CkptLoad left the generation unchanged")
	}
	h, _ := dst.GetHistogram("h")
	if h.Geometry() != src.Histogram("h", 0, 0, 0).Geometry() {
		t.Errorf("restored geometry %+v", h.Geometry())
	}
}

// Property: histogram quantile at q=1 always >= quantile at q=0.
func TestHistogramQuantileOrderProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(0.5, 70000, 10)
		for _, r := range raw {
			h.Observe(float64(r) + 1)
		}
		return h.Quantile(0) <= h.Quantile(0.5) && h.Quantile(0.5) <= h.Quantile(1)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
