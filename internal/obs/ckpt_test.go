package obs

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/resource"
)

// bitsEqual reports whether a and b are equal field by field, comparing
// floats by their bit patterns (NaN equals itself, -0 differs from +0).
func bitsEqual(a, b reflect.Value) bool {
	switch a.Kind() {
	case reflect.Float32, reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !bitsEqual(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Array:
		for i := 0; i < a.Len(); i++ {
			if !bitsEqual(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.String:
		return a.String() == b.String()
	case reflect.Bool:
		return a.Bool() == b.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return a.Int() == b.Int()
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Uint() == b.Uint()
	}
	panic(fmt.Sprintf("bitsEqual: unhandled kind %s", a.Kind()))
}

// hostileFloats are the values a text encoding tends to lose.
var hostileFloats = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0.1, -1e-300, math.MaxFloat64}

// hostileStrings are the values a text encoding has to escape.
var hostileStrings = []string{"", `say "hi"`, "line\nbreak\ttab", "bad \xff\xfe utf-8", "back\\slash", "nul\x00byte", "日本"}

// recordEvent records an event of the given kind whose every field is
// populated from the hostile value tables, seeded by i.
func recordEvent(tr *Tracer, i int, kind Kind, withCtrl bool) {
	f := func(j int) float64 { return hostileFloats[(i+j)%len(hostileFloats)] }
	s := func(j int) string { return hostileStrings[(i+j)%len(hostileStrings)] }
	vec := func(j int) resource.Vector {
		var v resource.Vector
		for k := range v {
			v[k] = f(j + k)
		}
		return v
	}
	ev := Event{
		At: time.Duration(i) * time.Second, Kind: kind,
		Verb: s(0), App: s(1), Object: s(2), Node: s(3), Detail: s(4),
		PerfErr: f(0), SLI: f(1), Objective: f(2), Offered: f(3),
		Replicas: i, Ready: -i, NewReplicas: math.MaxInt - i,
		Alloc: vec(1), NewAlloc: vec(2), Util: vec(3),
		HasCtrl: withCtrl,
	}
	if withCtrl {
		ev.Ctrl = ControlTrace{Stage: s(5), UtilTarget: f(4), Adaptations: i, FlooredKinds: -i}
		for k := range ev.Ctrl.Terms {
			ev.Ctrl.Terms[k] = PIDTerm{Err: f(k), P: f(k + 1), I: f(k + 2), D: f(k + 3), Out: f(k + 4), Clamped: (i+k)%2 == 0}
			ev.Ctrl.Gains[k] = GainSet{Kp: f(k + 5), Ki: f(k + 6), Kd: f(k)}
		}
	}
	tr.Record(ev)
}

// recordSpan records a span of the given kind in the same style.
func recordSpan(tr *Tracer, i int, kind SpanKind) {
	s := func(j int) string { return hostileStrings[(i+j)%len(hostileStrings)] }
	tr.RecordSpan(Span{
		Parent: uint64(i / 2), Kind: kind,
		App: s(0), Object: s(1), Node: s(2), Detail: s(3),
		Shard: int32(i%5) - 1, Start: time.Duration(i) * time.Second,
		End: time.Duration(i)*time.Second + time.Duration(i%3), WallNs: int64(i) * -1000,
	})
}

// TestTracerCkptRecordsRoundTrip: the binary ring records round-trip
// every event and span kind, with and without a PID decomposition,
// non-finite and negative-zero floats bit for bit, and strings no text
// encoding would pass through untouched — in an unwrapped ring, a ring
// that wrapped exactly at its end and one that wrapped mid-way. After
// the load, the next record must land where it would have in the
// original.
func TestTracerCkptRecordsRoundTrip(t *testing.T) {
	const capacity = 16
	cases := []struct {
		name string
		n    int
	}{
		{"empty", 0},
		{"unwrapped", capacity - 3},
		{"full", capacity},
		{"wrapped", 2*capacity + 5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src := New(capacity)
			for i := 0; i < tc.n; i++ {
				recordEvent(src, i, Kind(i%int(numKinds)), i%3 != 0)
				recordSpan(src, i, SpanKind(i%int(numSpanKinds)))
			}
			var buf bytes.Buffer
			w := ckpt.NewWriter(&buf)
			src.CkptSave(w)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			dst := New(capacity)
			r, err := ckpt.NewReader(&buf)
			if err != nil {
				t.Fatal(err)
			}
			if err := dst.CkptLoad(r); err != nil {
				t.Fatal(err)
			}
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			check := func(stage string) {
				t.Helper()
				if dst.Events() != src.Events() || dst.Dropped() != src.Dropped() ||
					dst.Spans() != src.Spans() || dst.SpansDropped() != src.SpansDropped() {
					t.Fatalf("%s: counters %d/%d/%d/%d, want %d/%d/%d/%d", stage,
						dst.Events(), dst.Dropped(), dst.Spans(), dst.SpansDropped(),
						src.Events(), src.Dropped(), src.Spans(), src.SpansDropped())
				}
				a, b := src.Snapshot(Filter{}), dst.Snapshot(Filter{})
				if len(a) != len(b) {
					t.Fatalf("%s: %d events restored, want %d", stage, len(b), len(a))
				}
				for i := range a {
					if !bitsEqual(reflect.ValueOf(a[i]), reflect.ValueOf(b[i])) {
						t.Fatalf("%s: event %d\n got %+v\nwant %+v", stage, i, b[i], a[i])
					}
				}
				sa, sb := src.SpanSnapshot(SpanFilter{}), dst.SpanSnapshot(SpanFilter{})
				if len(sa) != len(sb) {
					t.Fatalf("%s: %d spans restored, want %d", stage, len(sb), len(sa))
				}
				for i := range sa {
					if sa[i] != sb[i] {
						t.Fatalf("%s: span %d\n got %+v\nwant %+v", stage, i, sb[i], sa[i])
					}
				}
			}
			check("after load")
			for _, tr := range []*Tracer{src, dst} {
				recordEvent(tr, tc.n, KindFault, true)
				recordSpan(tr, tc.n, SpanPhase)
			}
			check("after one more record")
		})
	}
}

// TestTracerCkptRejectsBadKinds: a record whose kind byte is outside
// the taxonomy is corrupt input and fails the load.
func TestTracerCkptRejectsBadKinds(t *testing.T) {
	for _, span := range []bool{false, true} {
		src := New(4)
		if span {
			src.RecordSpan(Span{Kind: SpanKind(numSpanKinds)})
		} else {
			src.Record(Event{Kind: Kind(numKinds)})
		}
		var buf bytes.Buffer
		w := ckpt.NewWriter(&buf)
		src.CkptSave(w)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := ckpt.NewReader(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if err := New(4).CkptLoad(r); err == nil {
			t.Errorf("span=%v: a record with an unknown kind loaded", span)
		}
	}
}
