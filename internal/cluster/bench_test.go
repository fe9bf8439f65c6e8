package cluster

import (
	"fmt"
	"math"
	"testing"
	"time"

	"evolve/internal/race"
	"evolve/internal/resource"
	"evolve/internal/sched"
	"evolve/internal/sim"
)

// benchSizes are the pod counts the hot-path benchmarks sweep. 5000 pods
// is the scale the ROADMAP's "production-scale" north star implies; the
// acceptance bar for PR 2 is ≥3x on the 5000-pod tick.
var benchSizes = []int{50, 500, 5000}

// newBenchCluster builds a settled cluster hosting roughly `pods` service
// replicas spread over pods/25 services and pods/8 nodes, with every
// replica bound and serving. The returned cluster is in steady state:
// ticking it performs telemetry and accounting only, no placement churn.
func newBenchCluster(tb testing.TB, pods int) (*Cluster, *sim.Engine) {
	tb.Helper()
	eng := sim.NewEngine(7)
	cfg := Config{
		MetricsInterval:  5 * time.Second,
		Interference:     true,
		SchedulerPolicy:  sched.PolicySpread,
		MeasurementNoise: 0.03,
	}
	c := New(eng, cfg)
	nodes := pods/8 + 1
	if err := c.AddNodes("n", nodes, resource.New(64000, 256<<30, 4e9, 8e9)); err != nil {
		tb.Fatal(err)
	}
	services := pods / 25
	if services == 0 {
		services = 1
	}
	per := pods / services
	if per == 0 {
		per = 1
	}
	for i := 0; i < services; i++ {
		spec := testService(fmt.Sprintf("svc-%d", i))
		spec.InitialReplicas = per
		spec.MaxReplicas = per * 2
		spec.InitialAlloc = resource.New(500, 1<<30, 10e6, 10e6)
		if err := c.CreateService(spec); err != nil {
			tb.Fatal(err)
		}
		if err := c.SetLoadFunc(spec.Name, func(now time.Duration) float64 {
			return 200 + 100*math.Sin(now.Seconds()/300)
		}); err != nil {
			tb.Fatal(err)
		}
	}
	c.Start()
	// Two intervals settle the topology: the first tick binds every
	// replica, the second records steady telemetry.
	eng.Run(2 * cfg.MetricsInterval)
	return c, eng
}

// BenchmarkTick measures one steady-state cluster tick: telemetry,
// interference accounting and SLI evaluation with nothing pending.
func BenchmarkTick(b *testing.B) {
	for _, pods := range benchSizes {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			c, _ := newBenchCluster(b, pods)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.tick()
			}
		})
	}
}

// benchSchedulePending is one BenchmarkSchedulePending case: a backlog
// of `pods` unbound replicas drained in one round over `nodes` nodes.
func benchSchedulePending(b *testing.B, pods, nodes int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := sim.NewEngine(7)
		c := New(eng, DefaultConfig())
		if err := c.AddNodes("n", nodes, resource.New(64000, 256<<30, 4e9, 8e9)); err != nil {
			b.Fatal(err)
		}
		services := pods / 25
		if services == 0 {
			services = 1
		}
		for s := 0; s < services; s++ {
			spec := testService(fmt.Sprintf("svc-%d", s))
			spec.InitialReplicas = pods / services
			spec.MaxReplicas = pods
			spec.InitialAlloc = resource.New(500, 1<<30, 10e6, 10e6)
			if err := c.CreateService(spec); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		c.SchedulePendingNow()
	}
}

// BenchmarkSchedulePending measures draining a full pending backlog: the
// cluster starts with every replica unbound, and one call places them
// all. The nodes-512 case fixes the node count at the parallel-scoring
// threshold scale while the backlog stays at 5000 pods. The backlog case
// is one round over a backlog nothing in the full cluster can place or
// preempt for — the state the drain sits in through a load peak.
func BenchmarkSchedulePending(b *testing.B) {
	for _, pods := range benchSizes {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			benchSchedulePending(b, pods, pods/8+1)
		})
	}
	b.Run("pods-5000/nodes-512", func(b *testing.B) {
		benchSchedulePending(b, 5000, 512)
	})
	b.Run("backlog-2000/nodes-128", func(b *testing.B) {
		c := newBacklogCluster(b, 2000, 128)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.SchedulePendingNow()
		}
	})
}

// newBacklogCluster packs `nodes` nodes with priority-100 replicas, three
// per node, then queues about `pods` more that fit nowhere: replicas of
// several services at the same priority (nothing to preempt) and
// priority-0 tasks (which never preempt), in a few shapes each.
func newBacklogCluster(tb testing.TB, pods, nodes int) *Cluster {
	tb.Helper()
	eng := sim.NewEngine(7)
	c := New(eng, DefaultConfig())
	if err := c.AddNodes("n", nodes, resource.New(64000, 256<<30, 4e9, 8e9)); err != nil {
		tb.Fatal(err)
	}
	service := func(name string, replicas int, cpu float64) {
		spec := testService(name)
		spec.InitialReplicas = replicas
		spec.MaxReplicas = replicas
		spec.InitialAlloc = resource.New(cpu, 1<<30, 10e6, 10e6)
		spec.MaxAlloc = resource.New(64000, 64<<30, 1e9, 1e9)
		if err := c.CreateService(spec); err != nil {
			tb.Fatal(err)
		}
	}
	service("base", 3*nodes, 20000) // 60000 of the 60160 allocatable mc
	c.SchedulePendingNow()
	shapes := []float64{1000, 2000, 4000, 8000}
	for i := 0; i < pods/2/25; i++ {
		service(fmt.Sprintf("svc-%d", i), 25, shapes[i%len(shapes)])
	}
	for i := 0; i < pods/2; i++ {
		if err := c.SubmitTask(testTask(fmt.Sprintf("task-%d", i), shapes[i%len(shapes)], 1e6)); err != nil {
			tb.Fatal(err)
		}
	}
	if got := len(c.PendingPods()); got < pods {
		tb.Fatalf("backlog holds %d pods, want at least %d", got, pods)
	}
	return c
}

// TestDrainBacklogAllocs gates the drain's failure path: an untraced
// round over a backlog that cannot be placed or preempted must not
// allocate. Each failing pod costs a placement probe at most — the
// unschedulable diagnosis is built only when traced.
func TestDrainBacklogAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	c := newBacklogCluster(t, 400, 16)
	c.SchedulePendingNow() // size the queue and failed-shape scratch
	allocs := testing.AllocsPerRun(20, c.SchedulePendingNow)
	if allocs != 0 {
		t.Errorf("untraced backlog drain round allocates %.1f objects, want 0", allocs)
	}
	if n := c.met.Counter("sched/binds").Value(); n != 3*16 {
		t.Errorf("%d binds, want only the 48 base replicas", n)
	}
}

// BenchmarkScheduleGang measures hypothetical all-or-nothing gang
// placement over the public snapshot (the EASY-backfill query path):
// nothing commits, so every iteration answers the same question.
func BenchmarkScheduleGang(b *testing.B) {
	for _, ranks := range []int{8, 64} {
		b.Run(fmt.Sprintf("ranks-%d", ranks), func(b *testing.B) {
			c, _ := newBenchCluster(b, 500)
			infos := c.NodeInfos()
			gang := make([]sched.PodInfo, ranks)
			for i := range gang {
				gang[i] = sched.PodInfo{
					Name:     fmt.Sprintf("rank-%03d", i),
					App:      "mpi",
					Requests: resource.New(2000, 4<<30, 20e6, 20e6),
				}
			}
			dst := make([]string, len(gang))
			s := c.Scheduler()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := s.ScheduleGangInto(dst, gang, infos); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFullSim measures a complete simulated hour — scheduling, task
// completions, ticks — at each scale, the end-to-end number experiment
// sweeps pay per scenario.
func BenchmarkFullSim(b *testing.B) {
	for _, pods := range benchSizes {
		b.Run(fmt.Sprintf("pods-%d", pods), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				c, eng := newBenchCluster(b, pods)
				b.StartTimer()
				eng.Run(eng.Now() + time.Hour)
				_ = c
			}
		})
	}
}

// TestTickSteadyStateAllocs is the allocation-regression gate of the PR 2
// tentpole: once the cluster has settled and every series has grown its
// backing array, a tick must not allocate. The only allowed residue is
// the amortised growth of the append-only metric series, which the
// warm-up below pre-pays; the budget is deliberately near-zero.
func TestTickSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation accounting is not meaningful under -short")
	}
	c, eng := newBenchCluster(t, 200)
	// Warm up: enough ticks that every per-app and cluster series has
	// capacity headroom beyond the measured runs, then drain the SLI
	// windows so they regrow into existing capacity.
	eng.Run(eng.Now() + 700*c.cfg.MetricsInterval)
	for _, app := range c.Apps() {
		if _, err := c.Observe(app); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() { c.tick() })
	if allocs > 0.5 {
		t.Errorf("steady-state tick allocates %.1f objects/run, want ~0", allocs)
	}
}
