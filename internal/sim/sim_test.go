package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(3*time.Second, func() { got = append(got, 3) })
	e.At(1*time.Second, func() { got = append(got, 1) })
	e.At(2*time.Second, func() { got = append(got, 2) })
	e.Run(10 * time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("events out of order: %v", got)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v, want 10s", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(time.Second, func() { got = append(got, i) })
	}
	e.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events not FIFO: %v", got)
		}
	}
}

func TestEngineRunStopsAtBoundary(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.At(5*time.Second, func() { fired = true })
	n := e.Run(4 * time.Second)
	if n != 0 || fired {
		t.Error("event beyond horizon should not fire")
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
	e.Run(5 * time.Second)
	if !fired {
		t.Error("event at horizon should fire")
	}
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine(1)
	fired := false
	cancel := e.After(time.Second, func() { fired = true })
	cancel()
	e.RunAll()
	if fired {
		t.Error("cancelled event fired")
	}
}

func TestEnginePastPanics(t *testing.T) {
	e := NewEngine(1)
	e.At(5*time.Second, func() {})
	e.Run(5 * time.Second)
	defer func() {
		if recover() == nil {
			t.Error("scheduling in the past should panic")
		}
	}()
	e.At(time.Second, func() {})
}

func TestEngineEvery(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var cancel Canceler
	cancel = e.Every(time.Second, func() {
		count++
		if count == 5 {
			cancel()
		}
	})
	e.Run(100 * time.Second)
	if count != 5 {
		t.Errorf("periodic fired %d times, want 5", count)
	}
}

func TestEngineEveryInterval(t *testing.T) {
	e := NewEngine(1)
	var at []Time
	e.Every(2*time.Second, func() { at = append(at, e.Now()) })
	e.Run(7 * time.Second)
	want := []Time{2 * time.Second, 4 * time.Second, 6 * time.Second}
	if len(at) != len(want) {
		t.Fatalf("fired at %v, want %v", at, want)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Errorf("firing %d at %v, want %v", i, at[i], want[i])
		}
	}
}

func TestEngineEveryBadInterval(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every(0) should panic")
		}
	}()
	NewEngine(1).Every(0, func() {})
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(time.Millisecond, recurse)
		}
	}
	e.After(0, recurse)
	e.RunAll()
	if depth != 100 {
		t.Errorf("depth = %d, want 100", depth)
	}
	if e.Steps() != 100 {
		t.Errorf("Steps = %d, want 100", e.Steps())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must give identical streams")
		}
	}
	c := NewRNG(43)
	same := true
	a = NewRNG(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != c.Float64() {
			same = false
		}
	}
	if same {
		t.Error("different seeds should give different streams")
	}
}

func TestRNGForkIndependence(t *testing.T) {
	parent := NewRNG(7)
	child1 := parent.Fork()
	child2 := parent.Fork()
	if child1.Float64() == child2.Float64() && child1.Float64() == child2.Float64() {
		t.Error("forked children should be independent")
	}
}

func TestRNGDistributionMoments(t *testing.T) {
	g := NewRNG(123)
	const n = 200000

	var sum, sum2 float64
	for i := 0; i < n; i++ {
		v := g.Exp(2.0)
		sum += v
		sum2 += v * v
	}
	mean := sum / n
	if math.Abs(mean-2.0) > 0.05 {
		t.Errorf("Exp mean = %v, want ≈2", mean)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += float64(g.Poisson(4.5))
	}
	if m := sum / n; math.Abs(m-4.5) > 0.05 {
		t.Errorf("Poisson mean = %v, want ≈4.5", m)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += g.LogNormal(10, 0.5)
	}
	if m := sum / n; math.Abs(m-10) > 0.3 {
		t.Errorf("LogNormal mean = %v, want ≈10", m)
	}

	sum = 0
	for i := 0; i < n; i++ {
		sum += g.Normal(5, 2)
	}
	if m := sum / n; math.Abs(m-5) > 0.05 {
		t.Errorf("Normal mean = %v, want ≈5", m)
	}
}

func TestRNGPoissonLargeMean(t *testing.T) {
	g := NewRNG(5)
	const n = 20000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += float64(g.Poisson(1000))
	}
	if m := sum / n; math.Abs(m-1000) > 5 {
		t.Errorf("large-mean Poisson mean = %v, want ≈1000", m)
	}
	if g.Poisson(0) != 0 || g.Poisson(-1) != 0 {
		t.Error("non-positive mean should give 0")
	}
}

func TestRNGEdgeCases(t *testing.T) {
	g := NewRNG(9)
	if g.Exp(0) != 0 || g.Exp(-1) != 0 {
		t.Error("Exp with non-positive mean should be 0")
	}
	if g.LogNormal(0, 1) != 0 {
		t.Error("LogNormal with non-positive mean should be 0")
	}
	for i := 0; i < 1000; i++ {
		if v := g.Pareto(3, 1.5); v < 3 {
			t.Fatalf("Pareto sample %v below minimum", v)
		}
	}
	for i := 0; i < 1000; i++ {
		if v := g.Uniform(2, 5); v < 2 || v >= 5 {
			t.Fatalf("Uniform sample %v outside [2,5)", v)
		}
	}
}

func TestRNGJitterBounds(t *testing.T) {
	g := NewRNG(11)
	prop := func(raw uint32) bool {
		v := 1 + float64(raw%1000)
		j := g.Jitter(v, 0.2)
		return j >= v*0.8-1e-9 && j <= v*1.2+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRNGBernoulliFrequency(t *testing.T) {
	g := NewRNG(13)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if g.Bernoulli(0.3) {
			hits++
		}
	}
	f := float64(hits) / n
	if math.Abs(f-0.3) > 0.01 {
		t.Errorf("Bernoulli(0.3) frequency = %v", f)
	}
}

// Property: events fire in non-decreasing time order regardless of the
// order they were scheduled in.
func TestEngineOrderingProperty(t *testing.T) {
	prop := func(raw []uint16) bool {
		e := NewEngine(1)
		for _, r := range raw {
			e.At(time.Duration(r)*time.Millisecond, func() {})
		}
		last := time.Duration(-1)
		ok := true
		e.At(0, func() {}) // ensure at least one event
		for e.Pending() > 0 {
			// Step one event at a time by running to the head's time.
			before := e.Steps()
			e.Run(e.Now())
			if e.Steps() == before {
				// Nothing due yet at Now; advance to drain everything.
				e.RunAll()
			}
			if e.Now() < last {
				ok = false
			}
			last = e.Now()
		}
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestEngineDeterministicReplay(t *testing.T) {
	run := func() []Time {
		e := NewEngine(99)
		var fires []Time
		e.Every(time.Second, func() {
			if e.RNG().Bernoulli(0.5) {
				fires = append(fires, e.Now())
			}
		})
		e.Run(30 * time.Second)
		return fires
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("replay diverged: %d vs %d fires", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	var fired []int
	e.At(1*time.Second, func() { fired = append(fired, 1) })
	e.At(2*time.Second, func() {
		fired = append(fired, 2)
		e.Stop()
	})
	e.At(3*time.Second, func() { fired = append(fired, 3) })
	n := e.Run(10 * time.Second)
	if n != 2 || len(fired) != 2 {
		t.Errorf("ran %d events (%v), want exactly 2", n, fired)
	}
	if !e.Stopped() {
		t.Error("Stopped() should report true after Stop")
	}
	// The clock must not advance to the horizon after an abort: the
	// harness reports the failure at its virtual time of occurrence.
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", e.Now())
	}
	// A stopped engine stays stopped.
	if e.Run(20*time.Second) != 0 {
		t.Error("stopped engine must not process further events")
	}
	if e.RunAll() != 0 {
		t.Error("stopped engine must not process further events via RunAll")
	}
}

func TestRunSkipsDeadEventsUncounted(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.After(time.Second, func() { ran++ })
	cancel := e.After(2*time.Second, func() { ran++ })
	e.After(3*time.Second, func() { ran++ })
	cancel()
	if n := e.Run(time.Minute); n != 2 {
		t.Errorf("Run counted %d events, want 2 (dead events must not count)", n)
	}
	if ran != 2 {
		t.Errorf("ran %d callbacks, want 2", ran)
	}
}

func TestRunAllSkipsDeadEventsUncounted(t *testing.T) {
	e := NewEngine(1)
	ran := 0
	e.After(time.Second, func() { ran++ })
	cancel := e.After(2*time.Second, func() { ran++ })
	e.After(3*time.Second, func() { ran++ })
	cancel()
	if n := e.RunAll(); n != 2 {
		t.Errorf("RunAll counted %d events, want 2 (dead events must not count)", n)
	}
	if ran != 2 {
		t.Errorf("ran %d callbacks, want 2", ran)
	}
}

// TestCancelAfterFireIsNoop guards the event pool: a Canceler invoked
// after its event already fired must not kill the recycled struct that a
// later schedule is now using.
func TestCancelAfterFireIsNoop(t *testing.T) {
	e := NewEngine(1)
	cancelA := e.After(time.Second, func() {})
	e.RunAll() // A fires; its struct returns to the pool
	fired := false
	e.After(time.Second, func() { fired = true }) // reuses A's struct
	cancelA()                                     // stale cancel: must be a no-op
	e.RunAll()
	if !fired {
		t.Error("stale Canceler killed a recycled event")
	}
}

// TestEveryFiringAllocationFree pins down the event-pool win: once the
// pool is primed, each periodic firing reuses the same struct and
// allocates nothing.
func TestEveryFiringAllocationFree(t *testing.T) {
	e := NewEngine(1)
	e.Every(time.Second, func() {})
	e.Run(10 * time.Second) // prime the pool and the heap capacity
	allocs := testing.AllocsPerRun(100, func() {
		e.Run(e.Now() + time.Second)
	})
	if allocs > 0.5 {
		t.Errorf("periodic firing allocates %.1f objects, want 0", allocs)
	}
}

// TestRNGBurn: burning a fresh source to a recorded position reproduces
// the stream from there; a position behind the source, or one further
// ahead than a restore can plausibly need, is an error, not a panic or
// a years-long spin.
func TestRNGBurn(t *testing.T) {
	a := NewRNG(7)
	for i := 0; i < 10; i++ {
		a.Float64()
	}
	b := NewRNG(7)
	if err := b.Burn(a.Draws()); err != nil {
		t.Fatal(err)
	}
	if x, y := a.Float64(), b.Float64(); x != y {
		t.Fatalf("burned stream diverged: %v vs %v", x, y)
	}
	if err := b.Burn(b.Draws() - 1); err == nil {
		t.Error("burning behind the current position succeeded")
	}
	if err := b.Burn(b.Draws() + maxBurn + 1); err == nil {
		t.Error("burning past the bound succeeded")
	}
	if err := b.Burn(1 << 63); err == nil {
		t.Error("burning to a forged position succeeded")
	}
}
