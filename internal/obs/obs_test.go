package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"

	"evolve/internal/resource"
)

func mkEvent(seqHint int, kind Kind, verb, app string) Event {
	return Event{
		At:   time.Duration(seqHint) * time.Second,
		Kind: kind,
		Verb: verb,
		App:  app,
	}
}

func TestNopTracer(t *testing.T) {
	tr := Nop()
	if tr.Enabled() {
		t.Fatal("Nop tracer reports enabled")
	}
	tr.Record(mkEvent(1, KindControl, VerbDecide, "web")) // must not panic
	if got := tr.Snapshot(Filter{}); got != nil {
		t.Fatalf("Nop snapshot = %v, want nil", got)
	}
	if tr.Len() != 0 || tr.Events() != 0 || tr.Dropped() != 0 {
		t.Fatal("Nop tracer has state")
	}
	var nilTr *Tracer
	if nilTr.Enabled() {
		t.Fatal("nil tracer reports enabled")
	}
	nilTr.Record(Event{}) // must not panic
}

func TestTracerRecordAndSeq(t *testing.T) {
	tr := New(8)
	for i := 0; i < 5; i++ {
		tr.Record(mkEvent(i, KindSched, VerbBind, "web"))
	}
	evs := tr.Snapshot(Filter{})
	if len(evs) != 5 {
		t.Fatalf("got %d events, want 5", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(i+1) {
			t.Errorf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
	}
	if tr.Len() != 5 || tr.Events() != 5 || tr.Dropped() != 0 {
		t.Fatalf("Len/Events/Dropped = %d/%d/%d, want 5/5/0", tr.Len(), tr.Events(), tr.Dropped())
	}
}

func TestTracerRingWrap(t *testing.T) {
	tr := New(4)
	for i := 0; i < 10; i++ {
		tr.Record(mkEvent(i, KindSched, VerbBind, "web"))
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	if tr.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", tr.Dropped())
	}
	evs := tr.Snapshot(Filter{})
	if len(evs) != 4 {
		t.Fatalf("snapshot has %d events, want 4", len(evs))
	}
	// Oldest-first: the survivors are seq 7..10.
	for i, ev := range evs {
		if want := uint64(7 + i); ev.Seq != want {
			t.Errorf("snapshot[%d].Seq = %d, want %d", i, ev.Seq, want)
		}
	}
}

func TestSnapshotFilter(t *testing.T) {
	tr := New(64)
	tr.Record(Event{At: 10 * time.Second, Kind: KindControl, Verb: VerbDecide, App: "web"})
	tr.Record(Event{At: 20 * time.Second, Kind: KindSched, Verb: VerbBind, App: "web"})
	tr.Record(Event{At: 30 * time.Second, Kind: KindSched, Verb: VerbBind, App: "db"})
	tr.Record(Event{At: 40 * time.Second, Kind: KindPLO, Verb: VerbOnset, App: "web"})
	tr.Record(Event{At: 50 * time.Second, Kind: KindPLO, Verb: VerbClear, App: "web"})

	cases := []struct {
		name string
		f    Filter
		want int
	}{
		{"all", Filter{}, 5},
		{"app", Filter{App: "web"}, 4},
		{"kind", Filter{Kind: "sched"}, 2},
		{"verb", Filter{Verb: VerbOnset}, 1},
		{"from", Filter{From: 30 * time.Second}, 3},
		{"to", Filter{To: 20 * time.Second}, 2},
		{"range", Filter{From: 20 * time.Second, To: 40 * time.Second}, 3},
		{"limit", Filter{Lim: 2}, 2},
		{"app+kind", Filter{App: "web", Kind: "plo"}, 2},
		{"nothing", Filter{App: "absent"}, 0},
	}
	for _, c := range cases {
		if got := len(tr.Snapshot(c.f)); got != c.want {
			t.Errorf("%s: got %d events, want %d", c.name, got, c.want)
		}
	}
	// Lim keeps the most recent matches.
	lim := tr.Snapshot(Filter{App: "web", Lim: 2})
	if len(lim) != 2 || lim[0].Verb != VerbOnset || lim[1].Verb != VerbClear {
		t.Fatalf("limited snapshot = %+v, want the two most recent web events", lim)
	}
}

func TestTracerSink(t *testing.T) {
	tr := New(16)
	var buf bytes.Buffer
	tr.SetSink(&buf)
	tr.Record(Event{At: time.Second, Kind: KindSched, Verb: VerbBind, App: "web", Object: "web-1", Node: "node-0"})
	tr.Record(Event{At: 2 * time.Second, Kind: KindPLO, Verb: VerbOnset, App: "web", SLI: 0.42})
	if err := tr.SinkErr(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	var jsonl bytes.Buffer
	if err := RenderJSONL(&jsonl, bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("RenderJSONL over sink output: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink holds %d lines, want 2", len(lines))
	}
	for _, form := range []*bytes.Buffer{&buf, &jsonl} {
		evs, err := ReadTrace(bytes.NewReader(form.Bytes()))
		if err != nil {
			t.Fatalf("ReadTrace over sink output: %v", err)
		}
		if len(evs) != 2 || evs[0].Object != "web-1" || evs[1].SLI != 0.42 {
			t.Fatalf("decoded sink events %+v do not match recorded", evs)
		}
	}
}

type failWriter struct{ n int }

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errWriteFailed
}

var errWriteFailed = &writeError{}

type writeError struct{}

func (*writeError) Error() string { return "write failed" }

func TestTracerSinkErrorLatches(t *testing.T) {
	tr := New(16)
	fw := &failWriter{}
	tr.SetSink(fw)
	tr.Record(mkEvent(1, KindSched, VerbBind, "web"))
	tr.Record(mkEvent(2, KindSched, VerbBind, "web"))
	if tr.SinkErr() == nil {
		t.Fatal("sink error did not latch")
	}
	if fw.n != 1 {
		t.Fatalf("sink written %d times after error, want 1", fw.n)
	}
	// Ring recording continues regardless.
	if tr.Len() != 2 {
		t.Fatalf("ring holds %d events, want 2", tr.Len())
	}
}

// TestTracerConcurrency drives Record and Snapshot from separate
// goroutines; run with -race this verifies the lock discipline the HTTP
// debug endpoints rely on.
func TestTracerConcurrency(t *testing.T) {
	tr := New(128)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				tr.Record(mkEvent(i, KindSched, VerbBind, "web"))
			}
		}
	}()
	for i := 0; i < 50; i++ {
		evs := tr.Snapshot(Filter{App: "web"})
		for j := 1; j < len(evs); j++ {
			if evs[j].Seq != evs[j-1].Seq+1 {
				t.Errorf("snapshot not contiguous: seq %d follows %d", evs[j].Seq, evs[j-1].Seq)
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestRecordDoesNotAllocate is the package-level half of the traced
// steady-state guarantee: recording a fully populated event into the
// ring (no sink) must not touch the heap.
func TestRecordDoesNotAllocate(t *testing.T) {
	tr := New(1024)
	ev := Event{
		At: time.Minute, Kind: KindControl, Verb: VerbDecide, App: "web",
		PerfErr: 0.5, SLI: 0.1, Objective: 0.1, Offered: 300,
		Replicas: 3, Ready: 3, NewReplicas: 4,
		Alloc:   resource.Vector{1, 2, 3, 4},
		Util:    resource.Vector{0.5, 0.5, 0.5, 0.5},
		HasCtrl: true,
		Ctrl:    ControlTrace{Stage: "grow", UtilTarget: 0.7},
	}
	allocs := testing.AllocsPerRun(200, func() { tr.Record(ev) })
	if allocs > 0 {
		t.Fatalf("Record allocates %.1f per call, want 0", allocs)
	}
}

func BenchmarkRecord(b *testing.B) {
	tr := New(DefaultCapacity)
	ev := Event{
		At: time.Minute, Kind: KindControl, Verb: VerbDecide, App: "web",
		PerfErr: 0.5, SLI: 0.1, Objective: 0.1, Offered: 300,
		Replicas: 3, Ready: 3, NewReplicas: 4, HasCtrl: true,
		Ctrl: ControlTrace{Stage: "grow", UtilTarget: 0.7},
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Record(ev)
	}
}

func TestKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, ok := ParseEventKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseEventKind(%q) = %v,%v, want %v,true", k.String(), got, ok, k)
		}
	}
	if _, ok := ParseEventKind("bogus"); ok {
		t.Error("ParseEventKind accepted bogus kind")
	}
	if Kind(200).String() != "unknown" {
		t.Error("out-of-range kind did not stringify as unknown")
	}
}

// RecordBatch must be byte-equivalent to per-event Record calls: same
// sequence numbers, same ring content, same sink stream.
func TestRecordBatchMatchesRecord(t *testing.T) {
	one, bat := New(8), New(8)
	var oneSink, batSink bytes.Buffer
	one.SetSink(&oneSink)
	bat.SetSink(&batSink)

	evs := make([]Event, 5)
	for i := range evs {
		evs[i] = mkEvent(i, KindPLO, VerbOnset, "web")
	}
	for _, ev := range evs {
		one.Record(ev)
	}
	bat.RecordBatch(evs)

	if oneSink.String() != batSink.String() {
		t.Errorf("sink streams diverged:\n one: %q\n bat: %q", oneSink.String(), batSink.String())
	}
	a, b := one.Snapshot(Filter{}), bat.Snapshot(Filter{})
	if len(a) != len(b) {
		t.Fatalf("snapshot lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Errorf("event %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
	// Batch must not have mutated the caller's slice (Seq is stamped on
	// the copy).
	for i, ev := range evs {
		if ev.Seq != 0 {
			t.Errorf("RecordBatch stamped Seq=%d into caller's event %d", ev.Seq, i)
		}
	}
	// Empty and nop cases are no-ops.
	bat.RecordBatch(nil)
	if bat.Events() != 5 {
		t.Errorf("empty batch changed Events to %d", bat.Events())
	}
	Nop().RecordBatch(evs)
}
