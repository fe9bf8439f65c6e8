package main

import (
	"bufio"
	"bytes"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"evolve"
	"evolve/internal/obs"
)

// runSimWithSpans executes a small simulation with a span sink attached
// and returns the paths of its span stream in both forms: JSONL — the
// same wiring `evolve-sim -spans` performs — and the tracer's binary
// stream as written.
func runSimWithSpans(t *testing.T) (jsonl, bin string) {
	t.Helper()
	dir := t.TempDir()
	jsonl, bin = filepath.Join(dir, "spans.jsonl"), filepath.Join(dir, "spans.bin")
	var ws []*bufio.Writer
	var fs []*os.File
	for _, path := range []string{jsonl, bin} {
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		fs, ws = append(fs, f), append(ws, bufio.NewWriter(f))
	}
	c, err := evolve.New(evolve.Options{Seed: 11, Nodes: 4})
	if err != nil {
		t.Fatal(err)
	}
	c.EnableTracing(1 << 14).SetSpanSink(io.MultiWriter(obs.NewJSONLWriter(ws[0]), ws[1]))
	if err := c.AddService(evolve.ServiceOptions{Name: "web", BaseRate: 200}); err != nil {
		t.Fatal(err)
	}
	if err := c.SetLoad("web", evolve.Diurnal(150, 900, 30*time.Minute)); err != nil {
		t.Fatal(err)
	}
	if err := c.Run(45 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := c.Tracer().SpanSinkErr(); err != nil {
		t.Fatal(err)
	}
	for i := range fs {
		if err := ws[i].Flush(); err != nil {
			t.Fatal(err)
		}
		if err := fs[i].Close(); err != nil {
			t.Fatal(err)
		}
	}
	return jsonl, bin
}

// TestEndToEndPodExplanation is the acceptance gate for the span layer:
// run a simulation, persist its span stream, and have evolve-timeline
// reconstruct one pod's created→ready chain with correct parent links.
func TestEndToEndPodExplanation(t *testing.T) {
	path, _ := runSimWithSpans(t)

	// Pick a pod the controller caused: a lifecycle span with a parent.
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	spans, err := obs.ReadSpans(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("simulation produced no spans")
	}
	var caused string
	for i := range spans {
		if spans[i].Kind == obs.SpanLifecycle && spans[i].Parent != 0 {
			caused = spans[i].Object
			break
		}
	}
	if caused == "" {
		t.Fatal("no decision-caused pod over a 45m diurnal run")
	}

	// The chain itself: cause → lifecycle root → children, parents wired.
	chain := obs.PodChain(spans, caused)
	if len(chain) < 3 {
		t.Fatalf("chain for %s has %d spans, want cause+root+children", caused, len(chain))
	}
	if chain[0].Kind != obs.SpanDecision && chain[0].Kind != obs.SpanGang {
		t.Fatalf("chain[0] is %s, want the causing decision/gang span", chain[0].Kind)
	}
	root := chain[1]
	if root.Kind != obs.SpanLifecycle || root.Parent != chain[0].ID {
		t.Fatalf("chain[1] = %+v, want lifecycle parented to %d", root, chain[0].ID)
	}
	sawPending := false
	for _, sp := range chain[2:] {
		if sp.Parent != root.ID {
			t.Errorf("child %s span %d parents to %d, want root %d", sp.Kind, sp.ID, sp.Parent, root.ID)
		}
		if sp.Kind == obs.SpanPending {
			sawPending = true
			if sp.Start != root.Start {
				t.Errorf("pending starts at %v, root at %v", sp.Start, root.Start)
			}
		}
	}
	if !sawPending {
		t.Error("chain has no pending span: the created→bound leg is missing")
	}

	// The CLI answers the question from the file alone.
	var out bytes.Buffer
	if err := run([]string{"-spans", path, "-pod", caused}, &out); err != nil {
		t.Fatalf("evolve-timeline -pod %s: %v", caused, err)
	}
	text := out.String()
	for _, want := range []string{"pod " + caused, "to ready", "caused by", "pending"} {
		if !strings.Contains(text, want) {
			t.Errorf("explanation missing %q:\n%s", want, text)
		}
	}
}

func TestTimelineAndSummaryModes(t *testing.T) {
	path, bin := runSimWithSpans(t)
	// Every mode reads the binary stream exactly as its JSONL rendering.
	mode := func(what string, args ...string) string {
		t.Helper()
		var out, binOut bytes.Buffer
		if err := run(append([]string{"-spans", path}, args...), &out); err != nil {
			t.Fatalf("%s mode: %v", what, err)
		}
		if err := run(append([]string{"-spans", bin}, args...), &binOut); err != nil {
			t.Fatalf("%s mode over the binary stream: %v", what, err)
		}
		if out.String() != binOut.String() {
			t.Errorf("%s mode: binary stream output differs from JSONL:\n%.300s\nvs\n%.300s", what, binOut.String(), out.String())
		}
		return out.String()
	}
	if out := mode("timeline"); !strings.Contains(out, "timeline") || !strings.Contains(out, "lifecycle") {
		t.Errorf("timeline output:\n%.300s", out)
	}
	if out := mode("summary", "-summary"); !strings.Contains(out, "kind") || !strings.Contains(out, "pending") {
		t.Errorf("summary output:\n%.300s", out)
	}
	mode("window", "-from", "10m", "-to", "20m")

	// Error paths: missing flag, missing file, unknown pod.
	var out bytes.Buffer
	if err := run(nil, &out); err == nil {
		t.Error("missing -spans accepted")
	}
	if err := run([]string{"-spans", filepath.Join(t.TempDir(), "nope.jsonl")}, &out); err == nil {
		t.Error("missing file accepted")
	}
	if err := run([]string{"-spans", path, "-pod", "no-such-pod"}, &out); err == nil {
		t.Error("unknown pod accepted")
	}
}
