package main

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"evolve"
)

// Every workload advances virtual time in steps of one control period
// (three metric ticks), so a step is the unit every per-step figure uses.
const stepDur = 15 * time.Second

// Every workload warms up for five virtual minutes; an episode then
// runs 64 more (diurnal-pressure four times that), which holds two full
// periods of the diurnal load.
const (
	warmupSteps  = 20
	episodeSteps = 256
)

// baseRate is the sizing-point load of every service, in op/s.
const baseRate = 640

// Spec is one generated workload: everything needed to build its world
// through the public facade, as plain data so two generations from one
// seed can be compared for equality.
type Spec struct {
	Name     string
	Opts     evolve.Options
	Services []Service
	Batch    []evolve.BatchJobOptions
	HPC      []evolve.HPCJobOptions
	// Trace attaches the decision tracer with JSONL event and span sinks.
	Trace bool
	// Scrape renders /metrics (WriteMetrics) after every step.
	Scrape bool
	// CkptEvery takes an explicit Checkpoint after every step that ends
	// on a multiple of it; zero takes none inside the run.
	CkptEvery time.Duration
	// WarmupSteps run before measurement starts, as part of set-up.
	WarmupSteps int
	// EpisodeSteps is how far the measured window simulates from the
	// set-up checkpoint before it rewinds to it.
	EpisodeSteps int
	// BoundedBacklog asks the run to check that the pending backlog
	// drains within every diurnal period.
	BoundedBacklog bool
}

// Service is one service and its offered load.
type Service struct {
	evolve.ServiceOptions
	Load Load
}

// Load describes an offered-load function: flat at Base, or diurnal
// between Trough and Peak with the given Period; either way wrapped in
// deterministic multiplicative noise of ±Jitter seeded by NoiseSeed.
type Load struct {
	Diurnal            bool
	Base, Trough, Peak float64
	Period             time.Duration
	Jitter             float64
	NoiseSeed          int64
}

// Func builds the load function the facade consumes.
func (l Load) Func() evolve.LoadFunc {
	inner := evolve.Constant(l.Base)
	if l.Diurnal {
		inner = evolve.Diurnal(l.Trough, l.Peak, l.Period)
	}
	return evolve.Noisy(inner, l.Jitter, l.NoiseSeed)
}

var archetypes = []string{"web", "gateway", "kvstore", "inference"}

// workloadNames lists the workloads in the order BENCHMARK.json does.
var workloadNames = []string{"steady-fleet", "diurnal-pressure", "converged-full-stack"}

// Generate builds the named workload from a seed. The seed drives the
// simulation seed, every service's noise stream and the gang sizes; the
// shapes are fixed per workload.
func Generate(name string, seed int64) (Spec, error) {
	switch name {
	case "steady-fleet":
		// Default options: the 1-shard cluster tick and the serial
		// control step carry the load; after warm-up nothing is pending.
		s := Spec{Name: name, Opts: evolve.Options{Seed: seed, Nodes: 1000}, WarmupSteps: warmupSteps, EpisodeSteps: episodeSteps}
		for i := 0; i < 512; i++ {
			s.Services = append(s.Services, service(i, 16, Load{Base: baseRate, Jitter: 0.05, NoiseSeed: noiseSeed(seed, i)}))
		}
		return s, nil
	case "diurnal-pressure":
		// Peaks exceed capacity, so a pending backlog forms at every
		// peak and the scheduler drain dominates; troughs drain it. How
		// much backlog a peak builds varies with the seed, so an episode
		// spans eight periods to average it.
		s := Spec{Name: name, Opts: evolve.Options{Seed: seed, Nodes: 128}, WarmupSteps: warmupSteps, EpisodeSteps: 4 * episodeSteps, BoundedBacklog: true}
		for i := 0; i < 64; i++ {
			s.Services = append(s.Services, service(i, 16, diurnal(seed, i)))
		}
		return s, nil
	case "converged-full-stack":
		// Every feature on: sharded kernel, parallel control, chaos,
		// tracing to files, checkpoints, scrapes, DAG jobs and gangs.
		s := Spec{
			Name:  name,
			Opts:  evolve.Options{Seed: seed, Nodes: 300, Shards: 2, ShardWorkers: 2, CtrlWorkers: 2, Chaos: "mixed"},
			Trace: true, Scrape: true, CkptEvery: 5 * time.Minute,
			WarmupSteps: warmupSteps, EpisodeSteps: episodeSteps,
		}
		for i := 0; i < 128; i++ {
			s.Services = append(s.Services, service(i, 8, diurnal(seed, i)))
		}
		rng := rand.New(rand.NewSource(seed))
		for i, at := 0, 2*time.Minute; at <= s.horizon(); i, at = i+1, at+2*time.Minute {
			s.Batch = append(s.Batch, evolve.BatchJobOptions{Name: fmt.Sprintf("tera-%04d", i), Scale: 4, SubmitAt: at})
			s.HPC = append(s.HPC, evolve.HPCJobOptions{Name: fmt.Sprintf("gang-%04d", i), Ranks: 8 + rng.Intn(16), SubmitAt: at})
		}
		return s, nil
	}
	return Spec{}, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

func service(i, replicas int, load Load) Service {
	return Service{
		ServiceOptions: evolve.ServiceOptions{
			Name:      fmt.Sprintf("svc-%03d", i),
			Archetype: archetypes[i%len(archetypes)],
			BaseRate:  baseRate,
			Replicas:  replicas,
		},
		Load: load,
	}
}

// diurnal is the shared day/night shape: 0.3× to 1.3× of the base rate,
// with periods staggered by one second per service so peaks drift apart.
func diurnal(seed int64, i int) Load {
	return Load{
		Diurnal: true, Trough: 0.3 * baseRate, Peak: 1.3 * baseRate,
		Period: 30*time.Minute + time.Duration(i)*time.Second,
		Jitter: 0.10, NoiseSeed: noiseSeed(seed, i),
	}
}

func noiseSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) }

// horizon is the virtual time an episode ends at; the generated
// arrivals cover it.
func (s Spec) horizon() time.Duration {
	return time.Duration(s.WarmupSteps+s.EpisodeSteps) * stepDur
}

// diurnalPeriod is the longest load period of a diurnal workload: every
// window this long contains a trough of every service.
func (s Spec) diurnalPeriod() time.Duration {
	var p time.Duration
	for _, svc := range s.Services {
		if svc.Load.Period > p {
			p = svc.Load.Period
		}
	}
	return p
}

// Build constructs the workload's world through the public facade, in
// the order a user would: New, services and their loads, job
// submissions, then tracing. The sinks receive the JSONL streams when
// the spec traces.
func (s Spec) Build(events, spans io.Writer) (*evolve.Cluster, error) {
	c, err := evolve.New(s.Opts)
	if err != nil {
		return nil, err
	}
	for _, svc := range s.Services {
		if err := c.AddService(svc.ServiceOptions); err != nil {
			return nil, err
		}
		if err := c.SetLoad(svc.Name, svc.Load.Func()); err != nil {
			return nil, err
		}
	}
	for _, j := range s.Batch {
		if err := c.SubmitBatchJob(j); err != nil {
			return nil, err
		}
	}
	for _, j := range s.HPC {
		if err := c.SubmitHPCJob(j); err != nil {
			return nil, err
		}
	}
	if s.Trace {
		tr := c.EnableTracing(0)
		tr.SetSink(events)
		tr.SetSpanSink(spans)
	}
	return c, nil
}
