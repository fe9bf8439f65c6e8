package sched

import (
	"errors"
	"strings"
	"testing"

	"evolve/internal/resource"
)

func node(name string, capMilli float64, allocMilli float64) NodeInfo {
	return NodeInfo{
		Name:        name,
		Allocatable: resource.New(capMilli, 16<<30, 500e6, 1e9),
		Allocated:   resource.New(allocMilli, 0, 0, 0),
	}
}

func pod(name string, cpuMilli float64) PodInfo {
	return PodInfo{Name: name, App: "app", Requests: resource.New(cpuMilli, 1<<30, 10e6, 10e6)}
}

func TestFitFilter(t *testing.T) {
	f := FitFilter{}
	n := node("n1", 4000, 3500)
	p := pod("p", 400)
	if r := f.Filter(&p, &n); r != ReasonNone {
		t.Errorf("should fit: %v", r)
	}
	p = pod("p", 600)
	r := f.Filter(&p, &n)
	if r == ReasonNone || !strings.Contains(string(r), "cpu") {
		t.Errorf("want insufficient cpu, got %v", r)
	}
	// Multiple shortages named, in canonical kind order.
	tiny := NodeInfo{Name: "tiny", Allocatable: resource.New(100, 1<<20, 1, 1)}
	r = f.Filter(&p, &tiny)
	if r != "insufficient cpu,memory,diskio,netio" {
		t.Errorf("want every shortage named, got %q", r)
	}
}

func TestNodeFree(t *testing.T) {
	n := node("n", 4000, 1000)
	free := n.Free()
	if free[resource.CPU] != 3000 {
		t.Errorf("free cpu = %v", free[resource.CPU])
	}
	// Over-allocated clamps to zero, never negative.
	n.Allocated = n.Allocatable.Scale(2)
	if !n.Free().IsZero() {
		t.Errorf("over-allocated free = %v", n.Free())
	}
}

func TestLeastAllocatedPrefersEmpty(t *testing.T) {
	s := New(PolicySpread)
	nodes := []NodeInfo{node("busy", 4000, 3000), node("empty", 4000, 0)}
	got, err := s.Schedule(pod("p", 500), nodes)
	if err != nil || got != "empty" {
		t.Errorf("Schedule = %q, %v; want empty", got, err)
	}
}

func TestBinPackPrefersBusy(t *testing.T) {
	s := New(PolicyBinPack)
	nodes := []NodeInfo{node("busy", 4000, 3000), node("empty", 4000, 0)}
	got, err := s.Schedule(pod("p", 500), nodes)
	if err != nil || got != "busy" {
		t.Errorf("Schedule = %q, %v; want busy", got, err)
	}
}

func TestScheduleDeterministicTieBreak(t *testing.T) {
	s := New(PolicySpread)
	nodes := []NodeInfo{node("zeta", 4000, 0), node("alpha", 4000, 0)}
	got, err := s.Schedule(pod("p", 500), nodes)
	if err != nil || got != "alpha" {
		t.Errorf("tie-break = %q, want alpha", got)
	}
}

func TestUnschedulableMessage(t *testing.T) {
	s := New(PolicySpread)
	nodes := []NodeInfo{node("n1", 1000, 900), node("n2", 1000, 800)}
	_, err := s.Schedule(pod("p", 5000), nodes)
	var u *Unschedulable
	if !errors.As(err, &u) {
		t.Fatalf("want Unschedulable, got %v", err)
	}
	if u.Total != 2 {
		t.Errorf("Total = %d", u.Total)
	}
	if !strings.Contains(u.Error(), "0/2 nodes available") {
		t.Errorf("message = %q", u.Error())
	}
	empty := &Unschedulable{Pod: "p"}
	if !strings.Contains(empty.Error(), "no nodes") {
		t.Errorf("empty message = %q", empty.Error())
	}
}

func TestAppSpreadAvoidsColocation(t *testing.T) {
	s := New(PolicySpread)
	n1 := node("n1", 4000, 1000)
	n1.Pods = []PodInfo{{Name: "app-0", App: "app"}}
	n2 := node("n2", 4000, 1000)
	got, err := s.Schedule(pod("app-1", 500), []NodeInfo{n1, n2})
	if err != nil || got != "n2" {
		t.Errorf("Schedule = %q, want n2 (spread)", got)
	}
}

func TestBalancedAllocationAvoidsLopsided(t *testing.T) {
	p := BalancedAllocation{}
	// Node A would become CPU-heavy; node B stays balanced.
	a := NodeInfo{Name: "a", Allocatable: resource.New(1000, 1000, 1000, 1000), Allocated: resource.New(800, 100, 100, 100)}
	b := NodeInfo{Name: "b", Allocatable: resource.New(1000, 1000, 1000, 1000), Allocated: resource.New(300, 300, 300, 300)}
	req := PodInfo{Requests: resource.New(100, 100, 100, 100)}
	if p.Score(&req, &a) >= p.Score(&req, &b) {
		t.Error("balanced plugin should prefer the balanced node")
	}
}

func TestNewCustomValidation(t *testing.T) {
	if _, err := NewCustom(nil, nil); err == nil {
		t.Error("no filters should fail")
	}
	s, err := NewCustom([]FilterPlugin{FitFilter{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// No scorers: still schedulable, score 0 for all, name tie-break.
	got, err := s.Schedule(pod("p", 100), []NodeInfo{node("b", 4000, 0), node("a", 4000, 0)})
	if err != nil || got != "a" {
		t.Errorf("Schedule = %q, %v", got, err)
	}
}

func TestScheduleGangAllOrNothing(t *testing.T) {
	s := New(PolicySpread)
	nodes := []NodeInfo{node("n1", 4000, 0), node("n2", 4000, 0)}
	var gang []PodInfo
	for _, n := range []string{"g-0", "g-1", "g-2", "g-3"} {
		gang = append(gang, pod(n, 1800))
	}
	got, err := s.ScheduleGang(gang, nodes)
	if err != nil {
		t.Fatalf("gang of 4x1800m should fit 2x4000m: %v", err)
	}
	if len(got) != 4 {
		t.Fatalf("assignment = %v", got)
	}
	perNode := map[string]int{}
	for _, n := range got {
		perNode[n]++
	}
	if perNode["n1"] != 2 || perNode["n2"] != 2 {
		t.Errorf("gang packing = %v, want 2+2", perNode)
	}
	// One more member than fits: nothing placed.
	gang = append(gang, pod("g-4", 1800))
	if _, err := s.ScheduleGang(gang, nodes); err == nil {
		t.Error("oversized gang should fail")
	}
}

func TestScheduleGangSeesOwnReservations(t *testing.T) {
	s := New(PolicyBinPack)
	// Single node fits exactly 2 members; a naive scheduler that doesn't
	// track virtual commitments would place all 3 there.
	nodes := []NodeInfo{node("n1", 4000, 0), node("n2", 4000, 0)}
	gang := []PodInfo{pod("g-0", 2000), pod("g-1", 2000), pod("g-2", 2000)}
	got, err := s.ScheduleGang(gang, nodes)
	if err != nil {
		t.Fatal(err)
	}
	perNode := map[string]int{}
	for _, n := range got {
		perNode[n]++
	}
	for name, count := range perNode {
		if count > 2 {
			t.Errorf("node %s over-committed with %d members", name, count)
		}
	}
}

func TestPreemptEvictsLowestPriority(t *testing.T) {
	s := New(PolicySpread)
	n := node("n1", 4000, 4000)
	n.Pods = []PodInfo{
		{Name: "batch-1", App: "b", Requests: resource.New(1500, 1<<30, 0, 0), Priority: 0},
		{Name: "batch-2", App: "b", Requests: resource.New(1500, 1<<30, 0, 0), Priority: 0},
		{Name: "svc-1", App: "s", Requests: resource.New(1000, 1<<30, 0, 0), Priority: 100},
	}
	incoming := PodInfo{Name: "svc-2", App: "s", Requests: resource.New(1200, 1<<30, 0, 0), Priority: 100}
	plan := s.Preempt(incoming, []NodeInfo{n})
	if plan == nil {
		t.Fatal("no preemption plan found")
	}
	if plan.Node != "n1" || len(plan.Victims) != 1 {
		t.Fatalf("plan = %+v, want 1 victim on n1", plan)
	}
	if !strings.HasPrefix(plan.Victims[0], "batch") {
		t.Errorf("victim = %q, want a batch pod", plan.Victims[0])
	}
}

func TestPreemptNeverEvictsEqualOrHigher(t *testing.T) {
	s := New(PolicySpread)
	n := node("n1", 4000, 4000)
	n.Pods = []PodInfo{
		{Name: "svc-1", App: "s", Requests: resource.New(4000, 0, 0, 0), Priority: 100},
	}
	incoming := PodInfo{Name: "svc-2", App: "s", Requests: resource.New(1000, 0, 0, 0), Priority: 100}
	if plan := s.Preempt(incoming, []NodeInfo{n}); plan != nil {
		t.Errorf("equal priority should not be preempted: %+v", plan)
	}
}

func TestPreemptPicksCheapestNode(t *testing.T) {
	s := New(PolicySpread)
	expensive := node("a-expensive", 4000, 4000)
	expensive.Pods = []PodInfo{
		{Name: "mid-1", Requests: resource.New(2000, 0, 0, 0), Priority: 50},
	}
	cheap := node("b-cheap", 4000, 4000)
	cheap.Pods = []PodInfo{
		{Name: "low-1", Requests: resource.New(2000, 0, 0, 0), Priority: 0},
	}
	incoming := PodInfo{Name: "svc", Requests: resource.New(1500, 0, 0, 0), Priority: 100}
	plan := s.Preempt(incoming, []NodeInfo{expensive, cheap})
	if plan == nil || plan.Node != "b-cheap" {
		t.Errorf("plan = %+v, want cheapest victims on b-cheap", plan)
	}
}

// TestPreemptHonoursNodeSelector: a pod confined to pool a must not get
// a plan on a pool-b node, however cheap; bind does not re-check labels,
// so such a plan would evict b's pod and run the pod outside its pool.
func TestPreemptHonoursNodeSelector(t *testing.T) {
	s := New(PolicySpread)
	a := node("a", 4000, 4000)
	a.Labels = map[string]string{"pool": "a"}
	a.Pods = []PodInfo{{Name: "hi", Requests: resource.New(4000, 0, 0, 0), Priority: 100}}
	b := node("b", 4000, 4000)
	b.Labels = map[string]string{"pool": "b"}
	b.Pods = []PodInfo{{Name: "lo", Requests: resource.New(4000, 0, 0, 0), Priority: 0}}
	incoming := PodInfo{Name: "svc", Requests: resource.New(2000, 0, 0, 0), Priority: 100,
		NodeSelector: map[string]string{"pool": "a"}}
	if plan := s.Preempt(incoming, []NodeInfo{a, b}); plan != nil {
		t.Fatalf("plan = %+v on a node outside the pod's pool, want none", plan)
	}
	// The same low-priority pod inside the pool is a valid victim.
	a.Pods = b.Pods
	plan := s.Preempt(incoming, []NodeInfo{a, b})
	if plan == nil || plan.Node != "a" || len(plan.Victims) != 1 || plan.Victims[0] != "lo" {
		t.Fatalf("plan = %+v, want victim lo on a", plan)
	}
	// A custom chain applies its non-fit filters the same way.
	custom, err := NewCustom([]FilterPlugin{FitFilter{}, SelectorFilter{}}, []ScorePlugin{LeastAllocated{}})
	if err != nil {
		t.Fatal(err)
	}
	a.Pods = []PodInfo{{Name: "hi", Requests: resource.New(4000, 0, 0, 0), Priority: 100}}
	if plan := custom.Preempt(incoming, []NodeInfo{a, b}); plan != nil {
		t.Fatalf("custom chain: plan = %+v outside the pod's pool, want none", plan)
	}
}

func TestPreemptTrimsUnneededVictims(t *testing.T) {
	s := New(PolicySpread)
	n := node("n1", 4000, 4000)
	n.Pods = []PodInfo{
		{Name: "tiny", Requests: resource.New(100, 0, 0, 0), Priority: 0},
		{Name: "big", Requests: resource.New(3000, 0, 0, 0), Priority: 1},
	}
	incoming := PodInfo{Name: "svc", Requests: resource.New(2500, 1<<28, 0, 0), Priority: 100}
	plan := s.Preempt(incoming, []NodeInfo{n})
	if plan == nil {
		t.Fatal("no plan")
	}
	// Evicting "big" suffices; "tiny" must not be a victim.
	for _, v := range plan.Victims {
		if v == "tiny" {
			t.Errorf("unnecessary victim tiny in %v", plan.Victims)
		}
	}
}

func TestSelectorFilter(t *testing.T) {
	f := SelectorFilter{}
	n := node("n1", 4000, 0)
	n.Labels = map[string]string{"pool": "hpc", "disk": "nvme"}
	free := pod("p", 100)
	if r := f.Filter(&free, &n); r != ReasonNone {
		t.Errorf("no selector should match: %v", r)
	}
	sel := pod("p", 100)
	sel.NodeSelector = map[string]string{"pool": "hpc"}
	if r := f.Filter(&sel, &n); r != ReasonNone {
		t.Errorf("matching selector rejected: %v", r)
	}
	sel.NodeSelector = map[string]string{"pool": "hpc", "disk": "nvme"}
	if r := f.Filter(&sel, &n); r != ReasonNone {
		t.Errorf("multi-label selector rejected: %v", r)
	}
	sel.NodeSelector = map[string]string{"pool": "svc"}
	if r := f.Filter(&sel, &n); r == ReasonNone {
		t.Error("mismatched selector should be rejected")
	}
	// The rich per-node message names the smallest unmatched key.
	if msg := f.Explain(&sel, &n); msg != "selector pool=svc unmatched" {
		t.Errorf("Explain = %q", msg)
	}
	sel.NodeSelector = map[string]string{"gpu": "a100"}
	bare := node("bare", 4000, 0)
	if r := f.Filter(&sel, &bare); r == ReasonNone {
		t.Error("selector against unlabeled node should be rejected")
	}
}

func TestScheduleHonoursSelector(t *testing.T) {
	s := New(PolicySpread)
	a := node("a", 4000, 0)
	b := node("b", 4000, 3000) // busier, but the only labeled one
	b.Labels = map[string]string{"pool": "hpc"}
	p := pod("p", 500)
	p.NodeSelector = map[string]string{"pool": "hpc"}
	got, err := s.Schedule(p, []NodeInfo{a, b})
	if err != nil || got != "b" {
		t.Errorf("Schedule = %q, %v; want b", got, err)
	}
	// No matching node: unschedulable with the selector reason counted.
	p.NodeSelector = map[string]string{"pool": "gpu"}
	_, err = s.Schedule(p, []NodeInfo{a, b})
	var u *Unschedulable
	if !errors.As(err, &u) {
		t.Fatalf("want Unschedulable, got %v", err)
	}
	if !strings.Contains(u.Error(), "selector") {
		t.Errorf("reason should mention the selector: %v", u)
	}
}

func TestPreemptKeepsAllNecessaryVictims(t *testing.T) {
	// Regression: the trim pass used to append into the victims slice it
	// was still reading backwards, duplicating one victim and losing
	// another — producing a plan that freed less room than promised.
	s := New(PolicySpread)
	n := node("n1", 4000, 4000)
	n.Pods = []PodInfo{
		{Name: "tiny", Requests: resource.New(1500, 0, 0, 0), Priority: 0},
		{Name: "big", Requests: resource.New(2500, 0, 0, 0), Priority: 1},
	}
	// Needs both victims evicted.
	incoming := PodInfo{Name: "svc", Requests: resource.New(3800, 0, 0, 0), Priority: 100}
	plan := s.Preempt(incoming, []NodeInfo{n})
	if plan == nil {
		t.Fatal("no plan")
	}
	seen := map[string]int{}
	var freed float64
	for _, v := range plan.Victims {
		seen[v]++
		for _, p := range n.Pods {
			if p.Name == v {
				freed += p.Requests[resource.CPU]
			}
		}
	}
	for name, count := range seen {
		if count != 1 {
			t.Errorf("victim %s appears %d times", name, count)
		}
	}
	if freed < 3800 {
		t.Errorf("plan frees only %v cpu, pod needs 3800", freed)
	}
}

func BenchmarkSchedule100Nodes(b *testing.B) {
	s := New(PolicySpread)
	nodes := make([]NodeInfo, 100)
	for i := range nodes {
		nodes[i] = node(nodeName(i), 16000, float64(i%8)*1000)
	}
	p := pod("p", 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Schedule(p, nodes); err != nil {
			b.Fatal(err)
		}
	}
}

func nodeName(i int) string {
	return "node-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}
