package cluster

import (
	"testing"
	"time"
)

// TestTickClearsStaleUsageDuringOutage is a regression test for the
// no-capacity branch of the tick: when a service has no serving replica,
// no usage may remain recorded on its pods from a period when they did
// serve, otherwise the dead usage keeps feeding node interference for
// every tick of the outage. The replica serves, loses its node, rebinds
// when the node returns and sits out its startup delay — Running, not
// ready, the app in total outage.
func TestTickClearsStaleUsageDuringOutage(t *testing.T) {
	c := newTestCluster(t, 1)
	spec := testService("web")
	spec.InitialReplicas = 1
	spec.StartupDelay = time.Minute
	if err := c.CreateService(spec); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoadFunc("web", func(time.Duration) float64 { return 100 }); err != nil {
		t.Fatal(err)
	}
	c.Start()
	step := c.cfg.MetricsInterval
	c.Run(2 * time.Minute) // bound at the first tick, serving since 1m

	node := c.nodes["node-0"]
	pods := c.byApp["web"]
	if len(pods) != 1 {
		t.Fatalf("pods = %d, want 1", len(pods))
	}
	p := pods[0]
	c.syncPodUsage()
	if p.Usage.IsZero() || node.Usage.IsZero() {
		t.Fatalf("serving replica should carry usage: pod %v, node %v", p.Usage, node.Usage)
	}

	if err := c.FailNode("node-0"); err != nil {
		t.Fatal(err)
	}
	c.Run(c.now() + step)
	if err := c.RestoreNode("node-0"); err != nil {
		t.Fatal(err)
	}
	c.Run(c.now() + 3*step) // rebound, starting up: outage ticks

	if p.Phase != Running || p.ReadyAt <= c.now() {
		t.Fatalf("replica should be bound but not ready: phase=%v readyAt=%v now=%v", p.Phase, p.ReadyAt, c.now())
	}
	c.syncPodUsage()
	if !p.Usage.IsZero() {
		t.Errorf("stale usage not cleared during outage: %v", p.Usage)
	}
	if !node.Usage.IsZero() {
		t.Errorf("node usage should be zero during outage, got %v", node.Usage)
	}
}
