package evolve

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"evolve/internal/obs"
)

// Golden digests: a correctness oracle that lives outside the build.
//
// The byte-identity suites compare one code path of the current build
// with another path of the same build, so a change that moves both
// alike passes them. TestGoldenDigests instead pins a SHA-256 of every
// observable output — the report (rendered and at full float
// precision), the operational journal, the Prometheus exposition, and
// the event and span JSONL streams — for a small configuration matrix,
// against digests committed in testdata/golden_digests.txt. A refactor
// that claims "no behaviour change" must leave every line of that file
// untouched; a change that legitimately alters behaviour regenerates it
// with
//
//	go test -run TestGoldenDigests -update-golden .
//
// and says in CHANGES.md why the outputs moved.

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.txt from the current code")

const goldenFile = "testdata/golden_digests.txt"

// goldenChaos lands every fault kind, a node crash and a controller
// crash inside the short golden horizon.
const goldenChaos = "node-crash@12m-18m:node=node-0;metric-drop@5m:p=0.2;" +
	"act-reject@6m:p=0.25;metric-spike@8m:p=0.05,mag=1.5;act-delay@7m:p=0.2,delay=10s;" +
	"ctrl-crash@20m-22m"

// goldenScenario is one workload shape of the matrix: a scaled-down
// facade world in the image of a benchmark workload.
type goldenScenario struct {
	name  string
	nodes int
	pools []PoolOptions // replaces the flat nodes topology when set
	build func(c *Cluster) error
}

var goldenArchetypes = []string{"web", "gateway", "kvstore", "inference"}

func goldenServices(c *Cluster, n, replicas int, load func(i int) LoadFunc) error {
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("svc-%02d", i)
		if err := c.AddService(ServiceOptions{
			Name: name, Archetype: goldenArchetypes[i%len(goldenArchetypes)],
			BaseRate: 640, Replicas: replicas,
			StartupDelay: time.Duration(10*(1+i%3)) * time.Second,
		}); err != nil {
			return err
		}
		if err := c.SetLoad(name, load(i)); err != nil {
			return err
		}
	}
	return nil
}

func goldenDiurnal(i int) LoadFunc {
	return Noisy(Diurnal(0.3*640, 1.3*640, 20*time.Minute+time.Duration(i)*time.Second), 0.10, int64(1000+i))
}

var goldenScenarios = []goldenScenario{
	{"steady", 16, nil, func(c *Cluster) error {
		return goldenServices(c, 12, 4, func(i int) LoadFunc { return Noisy(Constant(640), 0.05, int64(i)) })
	}},
	{"diurnal", 6, nil, func(c *Cluster) error {
		return goldenServices(c, 10, 4, goldenDiurnal)
	}},
	{"converged", 10, nil, func(c *Cluster) error {
		if err := goldenServices(c, 6, 3, goldenDiurnal); err != nil {
			return err
		}
		for i, at := 0, 2*time.Minute; at <= 24*time.Minute; i, at = i+1, at+6*time.Minute {
			if err := c.SubmitBatchJob(BatchJobOptions{Name: fmt.Sprintf("tera-%02d", i), Scale: 1, SubmitAt: at}); err != nil {
				return err
			}
			if err := c.SubmitHPCJob(HPCJobOptions{Name: fmt.Sprintf("gang-%02d", i), Ranks: 4 + 2*i, SubmitAt: at + time.Minute}); err != nil {
				return err
			}
		}
		return nil
	}},
}

// backlogScenario keeps a pending backlog through every diurnal peak:
// more service replicas than two small pools hold, priority-0 batch
// tasks for the priority-100 replicas to preempt, and one service
// confined to pool a. It runs outside the full matrix (see goldenCases).
var backlogScenario = goldenScenario{"backlog", 0, []PoolOptions{{Name: "a", Nodes: 3}, {Name: "b", Nodes: 3}}, func(c *Cluster) error {
	if err := goldenServices(c, 5, 3, goldenDiurnal); err != nil {
		return err
	}
	if err := c.AddService(ServiceOptions{
		Name: "pinned", Archetype: "inference", BaseRate: 640, Replicas: 4,
		StartupDelay: 20 * time.Second, Pool: "a",
	}); err != nil {
		return err
	}
	if err := c.SetLoad("pinned", goldenDiurnal(5)); err != nil {
		return err
	}
	for i, at := 0, time.Minute; at <= 25*time.Minute; i, at = i+1, at+4*time.Minute {
		if err := c.SubmitBatchJob(BatchJobOptions{Name: fmt.Sprintf("sort-%02d", i), Scale: 2, SubmitAt: at}); err != nil {
			return err
		}
	}
	return nil
}}

// goldenCase is one cell of the matrix.
type goldenCase struct {
	sc          goldenScenario
	chaos       bool
	traced      bool
	shards      int
	ctrlWorkers int
}

func (g goldenCase) name() string {
	ch, tr := "clean", "untraced"
	if g.chaos {
		ch = "chaos"
	}
	if g.traced {
		tr = "traced"
	}
	return fmt.Sprintf("%s/%s/%s/shards=%d/ctrl=%d", g.sc.name, ch, tr, g.shards, g.ctrlWorkers)
}

// goldenCases enumerates 3 scenarios × chaos on/off × traced/untraced ×
// shards {1,4} × ctrl-workers {1,4}, plus the backlog scenario clean at
// 1 shard, traced and untraced, through the serial (ctrl=1) and the
// batched (ctrl=4) drain.
func goldenCases() []goldenCase {
	var out []goldenCase
	for _, traced := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			out = append(out, goldenCase{backlogScenario, false, traced, 1, workers})
		}
	}
	for _, sc := range goldenScenarios {
		for _, chaos := range []bool{false, true} {
			for _, traced := range []bool{false, true} {
				for _, shards := range []int{1, 4} {
					for _, workers := range []int{1, 4} {
						out = append(out, goldenCase{sc, chaos, traced, shards, workers})
					}
				}
			}
		}
	}
	return out
}

// goldenDigest runs one cell for 30 virtual minutes and hashes its
// observable outputs.
func goldenDigest(t *testing.T, g goldenCase) string {
	t.Helper()
	opts := Options{
		Seed: 7, Nodes: g.sc.nodes, Pools: g.sc.pools, MeasurementNoise: 0.05,
		Shards: g.shards, ShardWorkers: g.shards, CtrlWorkers: g.ctrlWorkers,
	}
	if g.chaos {
		opts.Chaos = goldenChaos
	}
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.sc.build(c); err != nil {
		t.Fatal(err)
	}
	var events, spans bytes.Buffer
	if g.traced {
		tr := c.EnableTracing(1 << 14)
		tr.SetSink(&events)
		tr.SetSpanSink(&spans)
	}
	if err := c.Run(30 * time.Minute); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	rep := c.Report()
	fmt.Fprintf(h, "report\n%s\n%+v\n", rep.String(), rep)
	fmt.Fprintf(h, "events\n")
	for _, e := range c.Events() {
		fmt.Fprintf(h, "%d %s %s %s\n", e.At, e.Kind, e.Object, e.Message)
	}
	fmt.Fprintf(h, "metrics\n")
	if err := c.WriteMetrics(h); err != nil {
		t.Fatal(err)
	}
	// The sinks stream binary records; the digest covers the JSONL
	// rendered from them, which pins the renderer byte for byte.
	for _, s := range []struct {
		name string
		bin  *bytes.Buffer
	}{{"trace", &events}, {"spans", &spans}} {
		var jsonl bytes.Buffer
		if err := obs.RenderJSONL(&jsonl, s.bin); err != nil {
			t.Fatalf("rendering the %s stream: %v", s.name, err)
		}
		fmt.Fprintf(h, "%s %d\n", s.name, jsonl.Len())
		h.Write(jsonl.Bytes())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

func readGolden(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatalf("%v (regenerate with -update-golden)", err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", goldenFile, line)
		}
		want[name] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestGoldenDigests replays the matrix and compares every digest with
// the committed one.
func TestGoldenDigests(t *testing.T) {
	cases := goldenCases()
	got := make(map[string]string, len(cases))
	for _, g := range cases {
		got[g.name()] = goldenDigest(t, g)
	}
	if *updateGolden {
		names := make([]string, 0, len(got))
		for n := range got {
			names = append(names, n)
		}
		sort.Strings(names)
		var b strings.Builder
		b.WriteString("# SHA-256 of report, journal, metrics, trace and span streams per configuration (see golden_test.go).\n")
		for _, n := range names {
			fmt.Fprintf(&b, "%s %s\n", n, got[n])
		}
		if err := os.MkdirAll(filepath.Dir(goldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readGolden(t)
	if len(want) != len(got) {
		t.Errorf("%s has %d digests, the matrix has %d cells", goldenFile, len(want), len(got))
	}
	for _, g := range cases {
		n := g.name()
		if w, ok := want[n]; !ok {
			t.Errorf("%s: no committed digest", n)
		} else if got[n] != w {
			t.Errorf("%s: digest %s, committed %s — observable behaviour changed", n, got[n], w)
		}
	}
}
