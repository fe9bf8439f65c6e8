package obs

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/race"
	"evolve/internal/resource"
)

// sampleSpans returns one span per kind, sharded and unsharded.
func sampleSpans() []Span {
	var out []Span
	for k := SpanKind(0); k < numSpanKinds; k++ {
		out = append(out, Span{
			Parent: uint64(k), Kind: k, App: "web", Object: "web-" + k.String(),
			Node: "node-1", Detail: `quote " and newline` + "\n", Shard: int32(k) - 1,
			Start: time.Duration(k) * time.Minute, End: time.Duration(k)*time.Minute + 1500*time.Millisecond,
			WallNs: int64(k) * 1000,
		})
	}
	return out
}

// tracedStreams records sampleEvents and sampleSpans through a tracer
// with both sinks attached and returns the tracer and the two binary
// streams.
func tracedStreams(t testing.TB) (*Tracer, []byte, []byte) {
	t.Helper()
	tr := New(64)
	var events, spans bytes.Buffer
	tr.SetSink(&events)
	tr.SetSpanSink(&spans)
	for _, ev := range sampleEvents() {
		tr.Record(ev)
	}
	for _, sp := range sampleSpans() {
		tr.RecordSpan(sp)
	}
	if tr.SinkErr() != nil || tr.SpanSinkErr() != nil {
		t.Fatalf("sink errors: %v, %v", tr.SinkErr(), tr.SpanSinkErr())
	}
	return tr, events.Bytes(), spans.Bytes()
}

// TestStreamRoundTrip: the binary streams decode to exactly the ring's
// records, and their JSONL rendering is byte-identical to the ring
// rendered by WriteJSONL/WriteSpansJSONL — the bytes the sinks wrote
// before they carried binary records.
func TestStreamRoundTrip(t *testing.T) {
	tr, events, spans := tracedStreams(t)
	if !bytes.HasPrefix(events, []byte("EVTR\x01E")) || !bytes.HasPrefix(spans, []byte("EVTR\x01S")) {
		t.Fatalf("stream headers %q, %q", events[:6], spans[:6])
	}

	ring := tr.Snapshot(Filter{})
	evs, err := ReadTrace(bytes.NewReader(events))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if !reflect.DeepEqual(evs, ring) {
		t.Fatalf("ReadTrace of the sink stream differs from the ring:\n got %+v\nwant %+v", evs, ring)
	}
	var want, got bytes.Buffer
	if err := WriteJSONL(&want, ring); err != nil {
		t.Fatal(err)
	}
	if err := RenderJSONL(&got, bytes.NewReader(events)); err != nil {
		t.Fatalf("RenderJSONL: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("rendered JSONL differs from WriteJSONL:\n got %s\nwant %s", got.String(), want.String())
	}
	if back, err := ReadTrace(&got); err != nil || !reflect.DeepEqual(back, ring) {
		t.Fatalf("ReadTrace of the rendered JSONL: %v\n got %+v\nwant %+v", err, back, ring)
	}

	spanRing := tr.SpanSnapshot(SpanFilter{})
	sps, err := ReadSpans(bytes.NewReader(spans))
	if err != nil {
		t.Fatalf("ReadSpans: %v", err)
	}
	if !reflect.DeepEqual(sps, spanRing) {
		t.Fatalf("ReadSpans of the sink stream differs from the ring:\n got %+v\nwant %+v", sps, spanRing)
	}
	want.Reset()
	got.Reset()
	if err := WriteSpansJSONL(&want, spanRing); err != nil {
		t.Fatal(err)
	}
	if err := RenderJSONL(&got, bytes.NewReader(spans)); err != nil {
		t.Fatalf("RenderJSONL of spans: %v", err)
	}
	if got.String() != want.String() {
		t.Fatalf("rendered span JSONL differs from WriteSpansJSONL:\n got %s\nwant %s", got.String(), want.String())
	}
}

// TestStreamFrameIsCheckpointRecord: every frame body is byte for byte
// a record of the checkpoint's ring section.
func TestStreamFrameIsCheckpointRecord(t *testing.T) {
	tr, events, spans := tracedStreams(t)
	var snap bytes.Buffer
	w := ckpt.NewWriter(&snap)
	tr.CkptSave(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for _, stream := range [][]byte{events, spans} {
		var s splitter
		frames := 0
		for p := stream; len(p) > 0; {
			body, n, err := s.next(p)
			if err != nil || n == 0 {
				t.Fatalf("splitting a sink stream: n=%d, %v", n, err)
			}
			if body != nil {
				frames++
				if !bytes.Contains(snap.Bytes(), body) {
					t.Fatalf("%v frame %d is not a checkpoint ring record", s.kind, frames)
				}
			}
			p = p[n:]
		}
		if frames == 0 {
			t.Fatal("no frames")
		}
	}
}

// TestStreamReattachConcatenates: re-attaching a sink to the same
// writer — as a harness does after every Restore — starts a new header,
// and the readers and the renderer take the concatenation whole.
func TestStreamReattachConcatenates(t *testing.T) {
	tr := New(64)
	var events, spans bytes.Buffer
	tr.SetSink(&events)
	tr.SetSpanSink(&spans)
	tr.Record(mkEvent(1, KindSched, VerbBind, "web"))
	tr.RecordSpan(mkSpan(SpanPending, "web", "web-1", 0, time.Second))

	var snap bytes.Buffer
	w := ckpt.NewWriter(&snap)
	tr.CkptSave(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		restored := New(64)
		r, err := ckpt.NewReader(bytes.NewReader(snap.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if err := restored.CkptLoad(r); err != nil {
			t.Fatal(err)
		}
		restored.SetSink(&events)
		restored.SetSpanSink(&spans)
		restored.Record(mkEvent(2, KindPLO, VerbOnset, "web"))
		restored.RecordSpan(mkSpan(SpanStartup, "web", "web-1", time.Second, 2*time.Second))
	}
	if n := bytes.Count(events.Bytes(), []byte(streamMagic)); n != 3 {
		t.Fatalf("event stream holds %d headers, want 3", n)
	}
	evs, err := ReadTrace(bytes.NewReader(events.Bytes()))
	if err != nil {
		t.Fatalf("ReadTrace of concatenated streams: %v", err)
	}
	if len(evs) != 3 || evs[0].Seq != 1 || evs[1].Seq != 2 || evs[2].Seq != 2 || evs[2].Kind != KindPLO {
		t.Fatalf("concatenated events %+v", evs)
	}
	sps, err := ReadSpans(bytes.NewReader(spans.Bytes()))
	if err != nil || len(sps) != 3 || sps[2].ID != 2 {
		t.Fatalf("concatenated spans %+v, %v", sps, err)
	}
	var jsonl bytes.Buffer
	if err := RenderJSONL(&jsonl, bytes.NewReader(events.Bytes())); err != nil {
		t.Fatalf("RenderJSONL of concatenated streams: %v", err)
	}
	if n := strings.Count(jsonl.String(), "\n"); n != 3 {
		t.Fatalf("rendered %d lines, want 3", n)
	}
}

// TestJSONLWriterSplitWrites: a stream fed to the renderer a byte at a
// time renders the same lines as one whole Write, and a stream cut
// inside a record fails Close.
func TestJSONLWriterSplitWrites(t *testing.T) {
	_, events, _ := tracedStreams(t)
	var whole, split bytes.Buffer
	if err := RenderJSONL(&whole, bytes.NewReader(events)); err != nil {
		t.Fatal(err)
	}
	j := NewJSONLWriter(&split)
	for i := range events {
		if n, err := j.Write(events[i : i+1]); n != 1 || err != nil {
			t.Fatalf("byte %d: Write = %d, %v", i, n, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if split.String() != whole.String() {
		t.Fatalf("byte-wise rendering differs:\n got %s\nwant %s", split.String(), whole.String())
	}
	if err := RenderJSONL(io.Discard, bytes.NewReader(events[:len(events)-1])); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("RenderJSONL of a cut stream = %v, want %v", err, io.ErrUnexpectedEOF)
	}
}

// TestReadStreamRejectsMalformed: each way a binary stream can be wrong
// is an error, never a panic or a silently short result.
func TestReadStreamRejectsMalformed(t *testing.T) {
	_, events, spans := tracedStreams(t)
	if maxFrame >= binary.LittleEndian.Uint32([]byte(streamMagic)) {
		t.Fatal("the magic read as a frame length is a legal length")
	}
	frame := func(body []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
	}
	first := func(stream []byte) []byte { // the first frame's body
		return stream[streamHeaderLen+frameLenSize : streamHeaderLen+frameLenSize+int(binary.LittleEndian.Uint32(stream[streamHeaderLen:]))]
	}
	header := streamEvents.header()
	cases := []struct {
		name string
		in   []byte
	}{
		{"cut header", events[:streamHeaderLen-1]},
		{"cut frame length", events[:streamHeaderLen+2]},
		{"cut frame body", events[:len(events)-1]},
		{"version 2", append([]byte("EVTR\x02E"), events[streamHeaderLen:]...)},
		{"unknown kind", append([]byte("EVTR\x01X"), events[streamHeaderLen:]...)},
		{"span stream", spans},
		{"span stream appended", append(append([]byte(nil), events...), spans...)},
		{"oversized frame length", append(append([]byte(nil), header...), 0xff, 0xff, 0xff, 0x7f)},
		{"empty frame", append(append([]byte(nil), header...), frame(nil)...)},
		{"trailing bytes in a frame", append(append([]byte(nil), header...), frame(append(append([]byte(nil), first(events)...), 0))...)},
		{"bad event kind", append(append([]byte(nil), header...), frame(func() []byte {
			b := append([]byte(nil), first(events)...)
			b[16] = byte(numKinds) // after Seq and At
			return b
		}())...)},
	}
	for _, c := range cases {
		if evs, err := ReadTrace(bytes.NewReader(c.in)); err == nil {
			t.Errorf("%s: ReadTrace = %d events, nil error", c.name, len(evs))
		}
		if err := RenderJSONL(io.Discard, bytes.NewReader(c.in)); err == nil && c.name != "span stream" {
			t.Errorf("%s: RenderJSONL succeeded", c.name)
		}
	}
	// A header alone is an empty stream, not an error.
	if evs, err := ReadTrace(bytes.NewReader(header)); err != nil || len(evs) != 0 {
		t.Errorf("header-only stream: %d events, %v", len(evs), err)
	}
}

// TestJSONNonFinite: NaN and the infinities render as JSON strings and
// decode back, in every float field of an event; finite values keep
// their shortest-form bytes. Span times are Durations, never
// non-finite, so a span line that claims one is rejected.
func TestJSONNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ev := Event{
		Seq: 1, At: time.Minute, Kind: KindControl, Verb: VerbDecide, App: "web",
		PerfErr: nan, SLI: inf, Objective: -inf, Offered: 1.5,
		Alloc: resource.Vector{nan, inf, -inf, 2}, HasCtrl: true, Ctrl: fullCtrl(),
	}
	ev.Ctrl.UtilTarget = nan
	ev.Ctrl.Terms[0] = PIDTerm{Err: inf, P: -inf, I: nan, D: 1, Out: 0.25}
	ev.Ctrl.Gains[1] = GainSet{Kp: nan, Ki: inf, Kd: -inf}
	line := AppendJSON(nil, &ev)
	for _, want := range []string{`"perf_err":"NaN"`, `"sli":"+Inf"`, `"objective":"-Inf"`, `"offered":1.5`,
		`"alloc":{"cpu":"NaN","memory":"+Inf","diskio":"-Inf","netio":2}`, `"util_target":"NaN"`} {
		if !bytes.Contains(line, []byte(want)) {
			t.Errorf("line lacks %s:\n%s", want, line)
		}
	}
	got, err := ParseEvent(line)
	if err != nil {
		t.Fatalf("ParseEvent: %v\n%s", err, line)
	}
	// NaN != NaN, so compare renderings, which are exact for every value.
	if back := AppendJSON(nil, &got); !bytes.Equal(back, line) {
		t.Fatalf("non-finite event did not round-trip:\n got %s\nwant %s", back, line)
	}
	if !math.IsNaN(got.PerfErr) || !math.IsInf(got.SLI, 1) || !math.IsInf(got.Ctrl.Gains[1].Kd, -1) {
		t.Fatalf("decoded %+v", got)
	}
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, []Event{ev}); err != nil {
		t.Fatal(err)
	}
	if evs, err := ReadTrace(&buf); err != nil || len(evs) != 1 {
		t.Fatalf("ReadTrace of a non-finite event: %d events, %v", len(evs), err)
	}
	for _, bad := range []string{`"NAN"`, `"Inf"`, `"1.5"`, `true`, `{}`} {
		if _, err := ParseEvent([]byte(`{"seq":1,"t":0,"kind":"plo","verb":"onset","sli":` + bad + `}`)); err == nil {
			t.Errorf("ParseEvent accepted sli %s", bad)
		}
	}

	sp := Span{ID: 1, Kind: SpanPhase, Shard: -1, Start: math.MaxInt64, End: math.MaxInt64}
	if got, err := ParseSpan(AppendSpanJSON(nil, &sp)); err != nil || got != sp {
		t.Fatalf("span at the Duration limit: %+v, %v", got, err)
	}
	for _, bad := range []string{`"NaN"`, `"+Inf"`, `"-Inf"`} {
		if _, err := ParseSpan([]byte(`{"id":1,"kind":"phase","t0":` + bad + `,"t1":0}`)); err == nil {
			t.Errorf("ParseSpan accepted t0 %s", bad)
		}
		if _, err := ParseEvent([]byte(`{"seq":1,"t":` + bad + `,"kind":"plo","verb":"onset"}`)); err == nil {
			t.Errorf("ParseEvent accepted t %s", bad)
		}
	}
}

// TestTraceSinkAllocs gates the sink path: with both sinks attached,
// Record, RecordBatch and RecordSpan encode into reused buffers and
// allocate nothing in steady state.
func TestTraceSinkAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("allocation budgets do not hold under the race detector")
	}
	tr := New(1024)
	tr.SetSink(io.Discard)
	tr.SetSpanSink(io.Discard)
	evs := sampleEvents()
	sp := sampleSpans()[0]
	for name, f := range map[string]func(){
		"Record":      func() { tr.Record(evs[0]) },
		"RecordBatch": func() { tr.RecordBatch(evs) },
		"RecordSpan":  func() { tr.RecordSpan(sp) },
	} {
		f() // grow the record buffers
		if allocs := testing.AllocsPerRun(200, f); allocs != 0 {
			t.Errorf("%s with sinks attached allocates %.1f per call, want 0", name, allocs)
		}
	}
	if tr.SinkErr() != nil || tr.SpanSinkErr() != nil {
		t.Fatalf("sink errors: %v, %v", tr.SinkErr(), tr.SpanSinkErr())
	}
}

// BenchmarkRecordSink measures recording with a sink attached: a
// control event with its PID decomposition and a span, each encoded as
// a binary frame; and, for comparison, the control event rendered as
// JSONL at the edge.
func BenchmarkRecordSink(b *testing.B) {
	ev := sampleEvents()[0]
	sp := sampleSpans()[0]
	var n countWriter
	for _, c := range []struct {
		name   string
		sink   io.Writer
		record func(*Tracer)
	}{
		{"event", &n, func(tr *Tracer) { tr.Record(ev) }},
		{"span", &n, func(tr *Tracer) { tr.RecordSpan(sp) }},
		{"event-jsonl", NewJSONLWriter(&n), func(tr *Tracer) { tr.Record(ev) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			tr := New(DefaultCapacity)
			tr.SetSink(c.sink)
			tr.SetSpanSink(c.sink)
			n = 0
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.record(tr)
			}
			b.SetBytes(int64(n) / int64(b.N))
		})
	}
}

// Fuzz modes: how the trace fuzzers turn their input into a stream. The
// high bit of the mode picks the valid stream's form: binary or JSONL.
const (
	fuzzRaw      = iota // the patch bytes are the whole stream
	fuzzTruncate        // the valid stream cut at the offset
	fuzzFlip            // patch XORed into the valid stream at the offset
	fuzzConcat          // the valid stream twice, then the patch
	numFuzzModes
	fuzzJSONL = 0x80
)

// fuzzStream builds the fuzzers' input from a valid stream.
func fuzzStream(valid []byte, mode uint8, at uint32, patch []byte) []byte {
	switch mode % numFuzzModes {
	case fuzzTruncate:
		return valid[:int(at)%(len(valid)+1)]
	case fuzzFlip:
		data := append([]byte(nil), valid...)
		for i, b := range patch {
			data[(int(at)+i)%len(data)] ^= b
		}
		return data
	case fuzzConcat:
		return append(append(append([]byte(nil), valid...), valid...), patch...)
	}
	return patch
}

// fuzzSeeds adds the seeds both trace fuzzers share.
func fuzzSeeds(f *testing.F, header []byte) {
	for _, form := range []uint8{0, fuzzJSONL} {
		f.Add(form|fuzzTruncate, uint32(0), []byte{})
		f.Add(form|fuzzTruncate, uint32(200), []byte{})
		f.Add(form|fuzzTruncate, uint32(1<<20), []byte{})
		f.Add(form|fuzzFlip, uint32(7), []byte{0x01})
		f.Add(form|fuzzFlip, uint32(90), []byte{0x80, 0x00, 0x40})
		f.Add(form|fuzzConcat, uint32(0), []byte{})
		f.Add(form|fuzzConcat, uint32(0), header)
	}
	f.Add(uint8(fuzzRaw), uint32(0), append(append([]byte(nil), header...), 0xff, 0xff, 0xff, 0x3f))
	f.Add(uint8(fuzzRaw), uint32(0), append(append([]byte(nil), header...), 8, 0, 0, 0, 1, 2, 3, 4, 5, 6, 7, 8))
	f.Add(uint8(fuzzRaw), uint32(0), []byte("{\"seq\":1}\n\n{not json"))
}

// FuzzReadTrace feeds ReadTrace arbitrary bytes and truncated,
// byte-flipped and concatenated copies of a valid event stream, binary
// and JSONL. Bad input must fail without panicking; whatever decodes
// must render as JSONL that ParseEvent accepts; a truncated stream that
// decodes is a prefix of the whole; two whole streams back to back
// decode to the records twice.
func FuzzReadTrace(f *testing.F) {
	tr, bin, _ := tracedStreams(f)
	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, tr.Snapshot(Filter{})); err != nil {
		f.Fatal(err)
	}
	fuzzSeeds(f, streamEvents.header())
	f.Fuzz(func(t *testing.T, mode uint8, at uint32, patch []byte) {
		valid := bin
		if mode&fuzzJSONL != 0 {
			valid = jsonl.Bytes()
		}
		evs, err := ReadTrace(bytes.NewReader(fuzzStream(valid, mode, at, patch)))
		if err != nil {
			return
		}
		var got bytes.Buffer
		for i := range evs {
			line := AppendJSON(nil, &evs[i])
			if _, err := ParseEvent(line); err != nil {
				t.Fatalf("decoded event %d renders as JSONL ParseEvent rejects: %v\n%s", i, err, line)
			}
			got.Write(line)
			got.WriteByte('\n')
		}
		switch mode % numFuzzModes {
		case fuzzTruncate:
			if !bytes.HasPrefix(jsonl.Bytes(), got.Bytes()) {
				t.Fatalf("a truncated stream decoded to records that are not a prefix of the whole")
			}
		case fuzzConcat:
			if want := bytes.Repeat(jsonl.Bytes(), 2); !bytes.HasPrefix(got.Bytes(), want) {
				t.Fatalf("concatenated streams decoded to %d events, not the records twice", len(evs))
			}
		}
	})
}

// FuzzReadSpans is FuzzReadTrace for span streams.
func FuzzReadSpans(f *testing.F) {
	tr, _, bin := tracedStreams(f)
	var jsonl bytes.Buffer
	if err := WriteSpansJSONL(&jsonl, tr.SpanSnapshot(SpanFilter{})); err != nil {
		f.Fatal(err)
	}
	fuzzSeeds(f, streamSpans.header())
	f.Fuzz(func(t *testing.T, mode uint8, at uint32, patch []byte) {
		valid := bin
		if mode&fuzzJSONL != 0 {
			valid = jsonl.Bytes()
		}
		sps, err := ReadSpans(bytes.NewReader(fuzzStream(valid, mode, at, patch)))
		if err != nil {
			return
		}
		var got bytes.Buffer
		for i := range sps {
			line := AppendSpanJSON(nil, &sps[i])
			if _, err := ParseSpan(line); err != nil {
				t.Fatalf("decoded span %d renders as JSONL ParseSpan rejects: %v\n%s", i, err, line)
			}
			got.Write(line)
			got.WriteByte('\n')
		}
		switch mode % numFuzzModes {
		case fuzzTruncate:
			if !bytes.HasPrefix(jsonl.Bytes(), got.Bytes()) {
				t.Fatalf("a truncated stream decoded to spans that are not a prefix of the whole")
			}
		case fuzzConcat:
			if want := bytes.Repeat(jsonl.Bytes(), 2); !bytes.HasPrefix(got.Bytes(), want) {
				t.Fatalf("concatenated streams decoded to %d spans, not the spans twice", len(sps))
			}
		}
	})
}
