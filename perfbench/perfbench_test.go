package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"

	"evolve/internal/control"
)

func TestGenerateIsDeterministicInSeed(t *testing.T) {
	for _, name := range workloadNames {
		a, err := Generate(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Generate(name, 7)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two generations from seed 7 differ", name)
		}
		c, _ := Generate(name, 8)
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: seeds 7 and 8 generate the same workload", name)
		}
	}
	if _, err := Generate("no-such-workload", 1); err == nil {
		t.Error("an unknown workload name was accepted")
	}
}

// benchmarkFile is the part of BENCHMARK.json the metric names are
// checked against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, defs := range [][]metricDef{endToEnd, perLayer, textOnly, layerTextOnly} {
		for _, d := range defs {
			if !valid.MatchString(d.name) {
				t.Errorf("metric name %q has characters outside [A-Za-z0-9_.-]", d.name)
			}
		}
	}
	same := func(kind string, defs []metricDef, listed []struct{ Name, Unit string }) {
		want := map[string]string{}
		for _, d := range defs {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("%s metrics differ between the program and BENCHMARK.json:\nprogram %v\njson    %v", kind, want, got)
		}
	}
	same("end_to_end", endToEnd, bf.EndToEnd)
	same("per_layer", perLayer, bf.PerLayer)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads in BENCHMARK.json %v, program %v", names, workloadNames)
	}
}

func TestWrappersForwardOptionalInterfaces(t *testing.T) {
	var p control.Plant = &timedPlant{}
	if _, ok := p.(control.Recorder); !ok {
		t.Error("timedPlant hides control.Recorder")
	}
	if _, ok := p.(control.BatchActuator); !ok {
		t.Error("timedPlant hides control.BatchActuator")
	}
	var c control.Controller = &timedController{}
	if _, ok := c.(control.Explainer); !ok {
		t.Error("timedController hides control.Explainer")
	}
	if _, ok := c.(control.Traceable); !ok {
		t.Error("timedController hides control.Traceable")
	}
	if _, ok := c.(control.StateSaver); !ok {
		t.Error("timedController hides control.StateSaver")
	}
}

// TestLayeredRunReproducesFacadeRun runs a shrunken converged-full-stack
// world (two control workers, chaos, tracing, jobs and gangs) through the
// facade and through the layer-timed rebuild, and requires the same
// outcome: a wrapper that dropped Recorder would lose the journal's
// autoscale lines, one that dropped Traceable the decision traces.
func TestLayeredRunReproducesFacadeRun(t *testing.T) {
	spec, err := Generate("converged-full-stack", 3)
	if err != nil {
		t.Fatal(err)
	}
	spec.Opts.Nodes = 40
	spec.Services = spec.Services[:12]
	spec.Batch, spec.HPC = spec.Batch[:4], spec.HPC[:4]
	const steps = 40

	var tl tally
	w, err := buildWorld(spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	lw, err := buildLayered(spec, io.Discard, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < steps; i++ {
		if _, ok := w.step(&tl); !ok {
			t.Fatal(tl.failures)
		}
		if _, ok := lw.step(&tl); !ok {
			t.Fatal(tl.failures)
		}
	}
	plain := outcome(withoutSpanCounts(w.c.Report()), w.c.Events())
	layered := outcome(withoutSpanCounts(lw.report()), lw.events())
	if plain != layered {
		t.Fatalf("outcomes differ\nfacade:\n%s\nlayer-timed:\n%s", plain, layered)
	}
	if lw.plant.observes.Load() == 0 || lw.decide.decisions.Load() == 0 {
		t.Error("the wrappers saw no calls")
	}
}

func TestDomains(t *testing.T) {
	cases := []struct {
		d    domain
		v    float64
		want bool
	}{
		{nonNeg, 0, true}, {nonNeg, -1, false},
		{percent, 100, true}, {percent, -0.854, false}, {percent, 101, false},
		{fraction, 1, true}, {fraction, 1.01, false},
		{overhead, -5, true}, {overhead, -101, false},
		{finite, -1e9, true},
	}
	for _, c := range cases {
		if got := c.d.contains(c.v); got != c.want {
			t.Errorf("domain %d contains(%v) = %v, want %v", c.d, c.v, got, c.want)
		}
	}
	for _, d := range []domain{nonNeg, percent, fraction, overhead, finite} {
		var nan float64
		nan = nan / nan
		if d.contains(nan) {
			t.Errorf("domain %d accepts NaN", d)
		}
	}
}
