package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"time"

	"evolve/internal/resource"
)

// JSON codec for trace events.
//
// Encoding is hand-rolled (AppendJSON) so the tracer's sink path reuses
// one buffer and never allocates per event; decoding (ParseEvent) goes
// through encoding/json mirror structs. The two halves are kept honest
// by a round-trip test over every event kind, and ControlTrace exposes
// the same form through MarshalJSON so encoding/json consumers (the
// /debug/controllers endpoint) emit identical bytes.
//
// Optional fields follow one rule: a field is present iff it is
// non-zero, which makes decode-of-absent and zero indistinguishable — by
// construction, since recorders leave irrelevant fields zero.

// AppendJSON appends the event as one compact JSON object (no trailing
// newline) and returns the extended buffer.
func AppendJSON(buf []byte, ev *Event) []byte {
	buf = append(buf, `{"seq":`...)
	buf = strconv.AppendUint(buf, ev.Seq, 10)
	buf = append(buf, `,"t":`...)
	buf = appendFloat(buf, ev.At.Seconds())
	buf = append(buf, `,"kind":"`...)
	buf = append(buf, ev.Kind.String()...)
	buf = append(buf, `","verb":`...)
	buf = appendString(buf, ev.Verb)

	buf = appendStrField(buf, "app", ev.App)
	buf = appendStrField(buf, "object", ev.Object)
	buf = appendStrField(buf, "node", ev.Node)
	buf = appendStrField(buf, "detail", ev.Detail)

	buf = appendNumField(buf, "perf_err", ev.PerfErr)
	buf = appendNumField(buf, "sli", ev.SLI)
	buf = appendNumField(buf, "objective", ev.Objective)
	buf = appendNumField(buf, "offered", ev.Offered)

	buf = appendIntField(buf, "replicas", ev.Replicas)
	buf = appendIntField(buf, "ready", ev.Ready)
	buf = appendIntField(buf, "new_replicas", ev.NewReplicas)

	buf = appendVecField(buf, "alloc", ev.Alloc)
	buf = appendVecField(buf, "new_alloc", ev.NewAlloc)
	buf = appendVecField(buf, "util", ev.Util)

	if ev.HasCtrl {
		buf = append(buf, `,"ctrl":`...)
		buf = appendCtrl(buf, &ev.Ctrl)
	}
	return append(buf, '}')
}

// appendFloat appends v in shortest form. JSON has no literal for NaN
// or the infinities, so those render as the strings "NaN", "+Inf" and
// "-Inf", which jsonFloat decodes back.
func appendFloat(buf []byte, v float64) []byte {
	if v-v != 0 { // NaN or ±Inf
		switch {
		case v > 0:
			return append(buf, `"+Inf"`...)
		case v < 0:
			return append(buf, `"-Inf"`...)
		}
		return append(buf, `"NaN"`...)
	}
	return strconv.AppendFloat(buf, v, 'g', -1, 64)
}

// appendString appends a JSON string literal, escaping the characters
// event fields can realistically carry (quotes, backslashes, control
// bytes from error messages).
func appendString(buf []byte, s string) []byte {
	buf = append(buf, '"')
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == '"' || c == '\\':
			buf = append(buf, '\\', c)
		case c == '\n':
			buf = append(buf, '\\', 'n')
		case c == '\t':
			buf = append(buf, '\\', 't')
		case c < 0x20:
			buf = append(buf, fmt.Sprintf(`\u%04x`, c)...)
		default:
			buf = append(buf, c)
		}
	}
	return append(buf, '"')
}

func appendStrField(buf []byte, key, v string) []byte {
	if v == "" {
		return buf
	}
	buf = append(buf, ',', '"')
	buf = append(buf, key...)
	buf = append(buf, '"', ':')
	return appendString(buf, v)
}

func appendNumField(buf []byte, key string, v float64) []byte {
	if v == 0 {
		return buf
	}
	buf = append(buf, ',', '"')
	buf = append(buf, key...)
	buf = append(buf, '"', ':')
	return appendFloat(buf, v)
}

func appendIntField(buf []byte, key string, v int) []byte {
	if v == 0 {
		return buf
	}
	buf = append(buf, ',', '"')
	buf = append(buf, key...)
	buf = append(buf, '"', ':')
	return strconv.AppendInt(buf, int64(v), 10)
}

// appendVec appends a resource vector as {"cpu":…,"memory":…,…}.
func appendVec(buf []byte, v resource.Vector) []byte {
	buf = append(buf, '{')
	for i := 0; i < int(resource.NumKinds); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, '"')
		buf = append(buf, resource.Kind(i).String()...)
		buf = append(buf, '"', ':')
		buf = appendFloat(buf, v[i])
	}
	return append(buf, '}')
}

func appendVecField(buf []byte, key string, v resource.Vector) []byte {
	if v.IsZero() {
		return buf
	}
	buf = append(buf, ',', '"')
	buf = append(buf, key...)
	buf = append(buf, '"', ':')
	return appendVec(buf, v)
}

// appendCtrl appends a ControlTrace object.
func appendCtrl(buf []byte, ct *ControlTrace) []byte {
	buf = append(buf, `{"stage":`...)
	buf = appendString(buf, ct.Stage)
	buf = append(buf, `,"util_target":`...)
	buf = appendFloat(buf, ct.UtilTarget)
	buf = append(buf, `,"adaptations":`...)
	buf = strconv.AppendInt(buf, int64(ct.Adaptations), 10)
	buf = append(buf, `,"floored":`...)
	buf = strconv.AppendInt(buf, int64(ct.FlooredKinds), 10)
	buf = append(buf, `,"terms":{`...)
	for i := 0; i < int(resource.NumKinds); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		t := &ct.Terms[i]
		buf = append(buf, '"')
		buf = append(buf, resource.Kind(i).String()...)
		buf = append(buf, `":{"err":`...)
		buf = appendFloat(buf, t.Err)
		buf = append(buf, `,"p":`...)
		buf = appendFloat(buf, t.P)
		buf = append(buf, `,"i":`...)
		buf = appendFloat(buf, t.I)
		buf = append(buf, `,"d":`...)
		buf = appendFloat(buf, t.D)
		buf = append(buf, `,"out":`...)
		buf = appendFloat(buf, t.Out)
		if t.Clamped {
			buf = append(buf, `,"clamped":true`...)
		}
		buf = append(buf, '}')
	}
	buf = append(buf, `},"gains":{`...)
	for i := 0; i < int(resource.NumKinds); i++ {
		if i > 0 {
			buf = append(buf, ',')
		}
		g := &ct.Gains[i]
		buf = append(buf, '"')
		buf = append(buf, resource.Kind(i).String()...)
		buf = append(buf, `":{"kp":`...)
		buf = appendFloat(buf, g.Kp)
		buf = append(buf, `,"ki":`...)
		buf = appendFloat(buf, g.Ki)
		buf = append(buf, `,"kd":`...)
		buf = appendFloat(buf, g.Kd)
		buf = append(buf, '}')
	}
	return append(buf, `}}`...)
}

// MarshalJSON renders the trace in the same canonical form AppendJSON
// uses inside events, so encoding/json consumers agree with the tracer.
func (ct ControlTrace) MarshalJSON() ([]byte, error) {
	return appendCtrl(nil, &ct), nil
}

// UnmarshalJSON decodes the canonical form.
func (ct *ControlTrace) UnmarshalJSON(data []byte) error {
	var m jsonCtrl
	if err := json.Unmarshal(data, &m); err != nil {
		return err
	}
	*ct = m.toCtrl()
	return nil
}

// Mirror structs for decoding. Field tags track AppendJSON exactly; the
// round-trip test in json_test.go fails if either side drifts.

// jsonFloat decodes a number as appendFloat writes it: a JSON number,
// or one of the strings "NaN", "+Inf" and "-Inf".
type jsonFloat float64

func (f *jsonFloat) UnmarshalJSON(b []byte) error {
	switch string(b) {
	case `"NaN"`:
		*f = jsonFloat(math.NaN())
	case `"+Inf"`:
		*f = jsonFloat(math.Inf(1))
	case `"-Inf"`:
		*f = jsonFloat(math.Inf(-1))
	case "null":
	default:
		v, err := strconv.ParseFloat(string(b), 64)
		if err != nil {
			return fmt.Errorf("obs: bad number %.32q", b)
		}
		*f = jsonFloat(v)
	}
	return nil
}

// seconds converts a time in seconds, as AppendJSON writes it, back to
// a Duration — rounding, because the value went through a float64
// division on encode, and saturating at the Duration range. No Duration
// renders as NaN or an infinity, so those are errors.
func seconds(s jsonFloat) (time.Duration, error) {
	if v := float64(s); v-v != 0 {
		return 0, fmt.Errorf("obs: time %v is not finite", v)
	}
	ns := math.Round(float64(s) * float64(time.Second))
	switch {
	case ns >= math.MaxInt64:
		return math.MaxInt64, nil
	case ns <= math.MinInt64:
		return math.MinInt64, nil
	}
	return time.Duration(ns), nil
}

type jsonVec struct {
	CPU    jsonFloat `json:"cpu"`
	Memory jsonFloat `json:"memory"`
	DiskIO jsonFloat `json:"diskio"`
	NetIO  jsonFloat `json:"netio"`
}

func (v *jsonVec) toVector() resource.Vector {
	if v == nil {
		return resource.Vector{}
	}
	return resource.Vector{float64(v.CPU), float64(v.Memory), float64(v.DiskIO), float64(v.NetIO)}
}

type jsonTerm struct {
	Err     jsonFloat `json:"err"`
	P       jsonFloat `json:"p"`
	I       jsonFloat `json:"i"`
	D       jsonFloat `json:"d"`
	Out     jsonFloat `json:"out"`
	Clamped bool      `json:"clamped"`
}

type jsonGains struct {
	Kp jsonFloat `json:"kp"`
	Ki jsonFloat `json:"ki"`
	Kd jsonFloat `json:"kd"`
}

type jsonCtrl struct {
	Stage       string               `json:"stage"`
	UtilTarget  jsonFloat            `json:"util_target"`
	Adaptations int                  `json:"adaptations"`
	Floored     int                  `json:"floored"`
	Terms       map[string]jsonTerm  `json:"terms"`
	Gains       map[string]jsonGains `json:"gains"`
}

func (m *jsonCtrl) toCtrl() ControlTrace {
	ct := ControlTrace{
		Stage:        m.Stage,
		UtilTarget:   float64(m.UtilTarget),
		Adaptations:  m.Adaptations,
		FlooredKinds: m.Floored,
	}
	for name, t := range m.Terms {
		k, err := resource.ParseKind(name)
		if err != nil {
			continue
		}
		ct.Terms[k] = PIDTerm{Err: float64(t.Err), P: float64(t.P), I: float64(t.I), D: float64(t.D), Out: float64(t.Out), Clamped: t.Clamped}
	}
	for name, g := range m.Gains {
		k, err := resource.ParseKind(name)
		if err != nil {
			continue
		}
		ct.Gains[k] = GainSet{Kp: float64(g.Kp), Ki: float64(g.Ki), Kd: float64(g.Kd)}
	}
	return ct
}

type jsonEvent struct {
	Seq         uint64    `json:"seq"`
	T           jsonFloat `json:"t"`
	Kind        string    `json:"kind"`
	Verb        string    `json:"verb"`
	App         string    `json:"app"`
	Object      string    `json:"object"`
	Node        string    `json:"node"`
	Detail      string    `json:"detail"`
	PerfErr     jsonFloat `json:"perf_err"`
	SLI         jsonFloat `json:"sli"`
	Objective   jsonFloat `json:"objective"`
	Offered     jsonFloat `json:"offered"`
	Replicas    int       `json:"replicas"`
	Ready       int       `json:"ready"`
	NewReplicas int       `json:"new_replicas"`
	Alloc       *jsonVec  `json:"alloc"`
	NewAlloc    *jsonVec  `json:"new_alloc"`
	Util        *jsonVec  `json:"util"`
	Ctrl        *jsonCtrl `json:"ctrl"`
}

// ParseEvent decodes one JSON line produced by AppendJSON.
func ParseEvent(line []byte) (Event, error) {
	var m jsonEvent
	if err := json.Unmarshal(line, &m); err != nil {
		return Event{}, fmt.Errorf("obs: bad trace line: %w", err)
	}
	kind, ok := ParseEventKind(m.Kind)
	if !ok {
		return Event{}, fmt.Errorf("obs: unknown event kind %q", m.Kind)
	}
	at, err := seconds(m.T)
	if err != nil {
		return Event{}, err
	}
	ev := Event{
		Seq:         m.Seq,
		At:          at,
		Kind:        kind,
		Verb:        m.Verb,
		App:         m.App,
		Object:      m.Object,
		Node:        m.Node,
		Detail:      m.Detail,
		PerfErr:     float64(m.PerfErr),
		SLI:         float64(m.SLI),
		Objective:   float64(m.Objective),
		Offered:     float64(m.Offered),
		Replicas:    m.Replicas,
		Ready:       m.Ready,
		NewReplicas: m.NewReplicas,
		Alloc:       m.Alloc.toVector(),
		NewAlloc:    m.NewAlloc.toVector(),
		Util:        m.Util.toVector(),
	}
	if m.Ctrl != nil {
		ev.HasCtrl = true
		ev.Ctrl = m.Ctrl.toCtrl()
	}
	return ev, nil
}

// WriteJSONL writes events as one JSON object per line.
func WriteJSONL(w io.Writer, events []Event) error {
	var buf []byte
	for i := range events {
		buf = AppendJSON(buf[:0], &events[i])
		buf = append(buf, '\n')
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}
