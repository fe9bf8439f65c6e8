package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"evolve/internal/resource"
)

// fullCtrl returns a ControlTrace with every field set to a value that
// survives the non-zero-iff-present encoding rule.
func fullCtrl() ControlTrace {
	ct := ControlTrace{Stage: "scale-out", UtilTarget: 0.65, Adaptations: 7, FlooredKinds: 2}
	for k := 0; k < int(resource.NumKinds); k++ {
		ct.Terms[k] = PIDTerm{Err: 0.5 + float64(k), P: 0.1, I: 0.2, D: 0.05, Out: 0.35, Clamped: k%2 == 0}
		ct.Gains[k] = GainSet{Kp: 0.5, Ki: 0.1, Kd: 0.05}
	}
	return ct
}

// sampleEvents returns one representative event per kind, plus a
// minimal one.
func sampleEvents() []Event {
	return []Event{
		{
			Seq: 1, At: 43*time.Minute + 1500*time.Millisecond, Kind: KindControl, Verb: VerbDecide,
			App: "web", Detail: `scale out 6→7: PLO err +0.42 with "ceiling" saturated`,
			PerfErr: 0.42, SLI: 0.131, Objective: 0.1, Offered: 812.5,
			Replicas: 6, Ready: 6, NewReplicas: 7,
			Alloc:    resource.Vector{4000, 2 << 30, 5e6, 1.4e7},
			NewAlloc: resource.Vector{4400, 2.2 * (1 << 30), 5.5e6, 1.5e7},
			Util:     resource.Vector{0.91, 0.55, 0.3, 0.3},
			HasCtrl:  true, Ctrl: fullCtrl(),
		},
		{Seq: 2, At: 44 * time.Minute, Kind: KindGain, Verb: VerbAdapt, App: "web", HasCtrl: true, Ctrl: fullCtrl()},
		{
			Seq: 3, At: 44*time.Minute + 5*time.Second, Kind: KindSched, Verb: VerbBind,
			App: "web", Object: "web-42", Node: "node-3",
			Alloc: resource.Vector{4400, 2.2 * (1 << 30), 5.5e6, 1.5e7},
		},
		{
			Seq: 4, At: 45 * time.Minute, Kind: KindSched, Verb: VerbReject,
			App: "web", Object: "web-43", Detail: "no node fits cpu request\nwith newline\tand tab",
		},
		{Seq: 5, At: 46 * time.Minute, Kind: KindRegistry, Verb: VerbAdded, Object: "pod/web-44"},
		{
			Seq: 6, At: 47 * time.Minute, Kind: KindPLO, Verb: VerbOnset,
			App: "web", SLI: 0.25, Objective: 0.1, PerfErr: 1.5,
		},
		{
			Seq: 7, At: 48 * time.Minute, Kind: KindFault, Verb: VerbDegraded,
			App: "web", Detail: "blind for 5 periods: holding last safe allocation",
			Replicas: 6, Ready: 4,
		},
		// Minimal event: nothing but the header survives.
		{Seq: 8, At: 0, Kind: KindSched, Verb: VerbEvict},
	}
}

// TestEventJSONRoundTrip keeps the hand-rolled encoder and the mirror
// decoder honest: one representative event per kind must survive
// encode→decode byte-exactly (reflect.DeepEqual on the struct).
func TestEventJSONRoundTrip(t *testing.T) {
	for i, ev := range sampleEvents() {
		line := AppendJSON(nil, &ev)
		got, err := ParseEvent(line)
		if err != nil {
			t.Fatalf("event %d (%s/%s): decode: %v\nline: %s", i, ev.Kind, ev.Verb, err, line)
		}
		if !reflect.DeepEqual(got, ev) {
			t.Errorf("event %d (%s/%s) did not round-trip:\n got %+v\nwant %+v\nline %s",
				i, ev.Kind, ev.Verb, got, ev, line)
		}
	}
}

// TestAppendJSONIsValidJSON runs the hand-rolled output through the
// standard decoder: every line must parse and escape correctly.
func TestAppendJSONIsValidJSON(t *testing.T) {
	ev := Event{
		Seq: 9, At: time.Second, Kind: KindSched, Verb: VerbReject,
		App: "we\"b", Detail: "quote \" backslash \\ newline \n tab \t bell \x07 done",
	}
	line := AppendJSON(nil, &ev)
	var m map[string]any
	if err := json.Unmarshal(line, &m); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, line)
	}
	if m["detail"] != ev.Detail {
		t.Fatalf("detail mangled: %q", m["detail"])
	}
	if m["app"] != ev.App {
		t.Fatalf("app mangled: %q", m["app"])
	}
}

// TestControlTraceMarshalSymmetry: encoding/json on a ControlTrace (the
// /debug/controllers path) must produce exactly the canonical bytes the
// tracer's sink writes, and decode back to the same struct.
func TestControlTraceMarshalSymmetry(t *testing.T) {
	ct := fullCtrl()
	viaStd, err := json.Marshal(ct)
	if err != nil {
		t.Fatal(err)
	}
	direct := appendCtrl(nil, &ct)
	if string(viaStd) != string(direct) {
		t.Fatalf("encoding/json and appendCtrl disagree:\n std %s\n raw %s", viaStd, direct)
	}
	var back ControlTrace
	if err := json.Unmarshal(viaStd, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, ct) {
		t.Fatalf("ControlTrace did not round-trip:\n got %+v\nwant %+v", back, ct)
	}
}

func TestReadTraceSkipsBlankAndFailsOnGarbage(t *testing.T) {
	good := AppendJSON(nil, &Event{Seq: 1, Kind: KindSched, Verb: VerbBind})
	in := string(good) + "\n\n" + string(good) + "\n"
	evs, err := ReadTrace(strings.NewReader(in))
	if err != nil || len(evs) != 2 {
		t.Fatalf("ReadTrace = %d events, %v; want 2, nil", len(evs), err)
	}
	if _, err := ReadTrace(strings.NewReader("{not json}\n")); err == nil {
		t.Fatal("ReadTrace accepted garbage")
	}
	if _, err := ReadTrace(strings.NewReader(`{"seq":1,"t":0,"kind":"bogus","verb":"x"}` + "\n")); err == nil {
		t.Fatal("ReadTrace accepted unknown kind")
	}
}

func TestWriteJSONLMatchesReadTrace(t *testing.T) {
	events := []Event{
		{Seq: 1, At: time.Second, Kind: KindControl, Verb: VerbDecide, App: "a", Replicas: 1, NewReplicas: 2},
		{Seq: 2, At: 2 * time.Second, Kind: KindPLO, Verb: VerbClear, App: "a", SLI: 0.01},
	}
	var sb strings.Builder
	if err := WriteJSONL(&sb, events); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, events) {
		t.Fatalf("WriteJSONL→ReadTrace drift:\n got %+v\nwant %+v", back, events)
	}
}

// TestTimestampPrecision guards the seconds-float encoding: durations
// with nanosecond residue must survive the round-trip via rounding.
func TestTimestampPrecision(t *testing.T) {
	for _, at := range []time.Duration{
		0, time.Nanosecond * 1500, time.Second / 3, 12345 * time.Millisecond,
		2 * time.Hour, 100*time.Hour + 7*time.Nanosecond,
	} {
		ev := Event{Seq: 1, At: at, Kind: KindSched, Verb: VerbBind}
		got, err := ParseEvent(AppendJSON(nil, &ev))
		if err != nil {
			t.Fatal(err)
		}
		if diff := got.At - at; diff < -time.Nanosecond || diff > time.Nanosecond {
			t.Errorf("At=%v round-tripped to %v (diff %v)", at, got.At, diff)
		}
	}
}
