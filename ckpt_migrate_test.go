package evolve

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/obs"
)

// EVCK format version 1 carried the coordinator section and the dense
// hot-state clock only for sharded worlds; version 2 carries them for
// every world, because the kernel always runs on shards. Restore still
// reads version 1. testdata/ckpt_v1_unsharded.evck is a version 1
// snapshot of legacyWorld at 12m, written by the last version 1 build.

const legacyFixture = "testdata/ckpt_v1_unsharded.evck"

// legacyContinuation is the SHA-256 of the report and journal of
// legacyWorld run uninterrupted to 24m, as recorded by the version 1
// build that wrote the fixture.
const legacyContinuation = "3329537dc07b626c32d5ee8d0b4a8783551557267e1f193f245d36a4d42bbdcc"

// legacyWorld is the untraced 1-shard world the fixture snapshots: two
// services, a batch DAG and an HPC gang whose tasks straddle the 12m
// barrier, sensor-dropout and delayed-actuation chaos.
func legacyWorld(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Options{Seed: 5, Nodes: 4, Chaos: "metric-drop@5m:p=0.2;act-delay@8m:p=0.2,delay=10s"})
	if err != nil {
		t.Fatal(err)
	}
	for _, svc := range []ServiceOptions{
		{Name: "web", Archetype: "web", BaseRate: 300, StartupDelay: 20 * time.Second},
		{Name: "kv", Archetype: "kvstore", BaseRate: 300, StartupDelay: 20 * time.Second},
	} {
		if err := c.AddService(svc); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.SetLoad("web", Noisy(Diurnal(150, 900, 20*time.Minute), 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("kv", Noisy(Constant(400), 0.05, 6)); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitBatchJob(BatchJobOptions{Name: "sort", Scale: 1, SubmitAt: 11 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitHPCJob(HPCJobOptions{Name: "mpi", Ranks: 2, CPUSecondsPerRank: 900, SubmitAt: 11 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	return c
}

func legacyDigest(c *Cluster) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(fmt.Sprintf("%+v\n%+v\n", c.Report(), c.Events()))))
}

// TestRestoreVersion1Unsharded restores the committed version 1
// fixture and continues to 24m: the result must match both the
// continuation the version 1 build recorded and an uninterrupted run of
// this build.
func TestRestoreVersion1Unsharded(t *testing.T) {
	raw, err := os.ReadFile(legacyFixture)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := ckpt.NewReader(bytes.NewReader(raw)); err != nil || r.Version() != 1 {
		t.Fatalf("fixture is not a version 1 checkpoint (err %v)", err)
	}
	restored := legacyWorld(t)
	if err := restored.Restore(bytes.NewReader(raw)); err != nil {
		t.Fatalf("restoring a version 1 checkpoint: %v", err)
	}
	if got := restored.Now(); got != 12*time.Minute {
		t.Fatalf("restored clock %v, want 12m", got)
	}
	if st, _ := restored.HPCStatus("mpi"); st != "running" {
		t.Fatalf("HPC gang %q at the barrier, want running", st)
	}
	if err := restored.Run(12 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := legacyDigest(restored); got != legacyContinuation {
		t.Errorf("continuation from the version 1 snapshot: digest %s, recorded %s", got, legacyContinuation)
	}

	whole := legacyWorld(t)
	if err := whole.Run(24 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := legacyDigest(whole); got != legacyContinuation {
		t.Errorf("uninterrupted run: digest %s, recorded %s", got, legacyContinuation)
	}

	// A snapshot this build writes is the current version and restores too.
	var buf bytes.Buffer
	if err := restored.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	if r, err := ckpt.NewReader(bytes.NewReader(buf.Bytes())); err != nil || r.Version() != ckpt.Version {
		t.Fatalf("new checkpoint is not version %d (err %v)", ckpt.Version, err)
	}
	again := legacyWorld(t)
	if err := again.Restore(&buf); err != nil {
		t.Fatalf("restoring a version %d checkpoint: %v", ckpt.Version, err)
	}
}

// testdata/ckpt_v2_traced.evck is a version 2 snapshot of
// legacyTracedWorld at 12m, written by the last version 2 build. It is
// the only fixture whose tracer rings are stored as JSON records and
// whose body is sealed with FNV-1a.
const legacyTracedFixture = "testdata/ckpt_v2_traced.evck"

// legacyTracedContinuation is the SHA-256 of ckptFingerprint (report,
// journal, trace ring and span ring) of legacyTracedWorld run
// uninterrupted to 24m, as recorded by the version 2 build that wrote
// the fixture.
const legacyTracedContinuation = "f96553f4a6c59b5c1c62bece110ad2a19caa36f2729ad81de298a78e7c874420"

// legacyTracedWorld is the traced 2-shard world the version 2 fixture
// snapshots: a diurnal service, a batch DAG and an HPC gang whose tasks
// straddle the 12m barrier, under sensor-dropout, delayed-actuation and
// node-kill chaos.
func legacyTracedWorld(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Options{Seed: 11, Nodes: 4, Shards: 2, ShardWorkers: 1,
		Chaos: "metric-drop@5m:p=0.2;act-delay@8m:p=0.2,delay=10s;node-crash@9m-15m:node=node-1"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddService(ServiceOptions{
		Name: "web", Archetype: "web", BaseRate: 300, StartupDelay: 20 * time.Second,
		LatencyObjective: 100 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("web", Noisy(Diurnal(150, 900, 20*time.Minute), 0.1, 5)); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitBatchJob(BatchJobOptions{Name: "sort", Scale: 1, SubmitAt: 11 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	if err := c.SubmitHPCJob(HPCJobOptions{Name: "mpi", Ranks: 2, CPUSecondsPerRank: 900, SubmitAt: 11 * time.Minute}); err != nil {
		t.Fatal(err)
	}
	c.EnableTracing(0)
	return c
}

// TestRestoreVersion2Traced restores the committed version 2 fixture —
// FNV-1a checksum, tracer rings as JSON records — and continues to 24m:
// report, journal and both tracer rings must match the continuation
// the version 2 build recorded and an uninterrupted run of this build.
func TestRestoreVersion2Traced(t *testing.T) {
	raw, err := os.ReadFile(legacyTracedFixture)
	if err != nil {
		t.Fatal(err)
	}
	if r, err := ckpt.NewReader(bytes.NewReader(raw)); err != nil || r.Version() != 2 {
		t.Fatalf("fixture is not a version 2 checkpoint (err %v)", err)
	}
	restored := legacyTracedWorld(t)
	if err := restored.Restore(bytes.NewReader(raw)); err != nil {
		t.Fatalf("restoring a version 2 checkpoint: %v", err)
	}
	if got := restored.Now(); got != 12*time.Minute {
		t.Fatalf("restored clock %v, want 12m", got)
	}
	if st, _ := restored.HPCStatus("mpi"); st != "running" {
		t.Fatalf("HPC gang %q at the barrier, want running", st)
	}
	if n := len(restored.Tracer().Snapshot(obs.Filter{})); n == 0 {
		t.Fatal("restored event ring is empty")
	}
	if n := len(restored.Tracer().SpanSnapshot(obs.SpanFilter{})); n == 0 {
		t.Fatal("restored span ring is empty")
	}
	if err := restored.Run(12 * time.Minute); err != nil {
		t.Fatal(err)
	}
	digest := func(c *Cluster) string {
		return fmt.Sprintf("%x", sha256.Sum256([]byte(ckptFingerprint(c))))
	}
	if got := digest(restored); got != legacyTracedContinuation {
		t.Errorf("continuation from the version 2 snapshot: digest %s, recorded %s", got, legacyTracedContinuation)
	}

	whole := legacyTracedWorld(t)
	if err := whole.Run(24 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if got := digest(whole); got != legacyTracedContinuation {
		t.Errorf("uninterrupted run: digest %s, recorded %s", got, legacyTracedContinuation)
	}
}
