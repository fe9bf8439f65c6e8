package obs

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"evolve/internal/ckpt"
)

// Trace streams. The tracer's sinks write binary records, and JSONL is
// a rendering of such a stream at the edge (JSONLWriter, RenderJSONL).
//
// A stream is a header — the magic "EVTR", a format version byte and a
// kind byte ('E' events, 'S' spans) — then one frame per record: a
// little-endian uint32 body length and the body. A body holds exactly
// the bytes the checkpoint's ring section stores for the record
// (saveEvent, saveSpan), so one encoder and one decoder serve both. A
// re-attached sink starts with a fresh header, so a file may hold
// several streams of one kind back to back; the readers accept that. A
// body is at most maxFrame bytes, less than the magic read as a length,
// so a header is never mistaken for a frame.

const (
	streamMagic     = "EVTR"
	streamVersion   = 1
	streamHeaderLen = len(streamMagic) + 2
	frameLenSize    = 4
	maxFrame        = 1 << 30
)

// streamKind is the record kind a stream carries, as its header's kind
// byte spells it.
type streamKind byte

const (
	streamEvents streamKind = 'E'
	streamSpans  streamKind = 'S'
)

func (k streamKind) String() string {
	switch k {
	case streamEvents:
		return "event"
	case streamSpans:
		return "span"
	}
	return fmt.Sprintf("kind %#x", byte(k))
}

func (k streamKind) header() []byte {
	return append([]byte(streamMagic), streamVersion, byte(k))
}

// sink is one binary stream a tracer tees records to: the caller's
// writer, its first write error (latched: nothing is written after
// it) and the record writer frames are encoded in.
type sink struct {
	w     io.Writer
	err   error
	hdr   []byte // the stream header, pending until the next frame when fresh
	fresh bool
	rec   *ckpt.Writer
}

// set attaches w (nil detaches) and clears the latched error. The next
// frame starts a new stream with its header.
func (s *sink) set(w io.Writer, k streamKind) {
	if s.rec == nil {
		s.rec = ckpt.NewRecordWriter()
		s.hdr = k.header()
	}
	s.w, s.err, s.fresh = w, nil, true
}

// live reports whether records should be teed.
func (s *sink) live() bool { return s.w != nil && s.err == nil }

var framePlaceholder [frameLenSize]byte

// begin starts the next frame, behind the stream header when the sink
// is fresh, and returns the writer its body is encoded with.
func (s *sink) begin() *ckpt.Writer {
	s.rec.Reset()
	if s.fresh {
		s.rec.Raw(s.hdr)
	}
	s.rec.Raw(framePlaceholder[:])
	return s.rec
}

// end patches the frame's length and writes header and frame in one
// Write, latching its error.
func (s *sink) end() {
	b := s.rec.Buffered()
	at := 0
	if s.fresh {
		at = len(s.hdr)
	}
	n := len(b) - at - frameLenSize
	if n > maxFrame {
		s.err = fmt.Errorf("obs: trace record of %d bytes exceeds the %d-byte frame limit", n, maxFrame)
		return
	}
	binary.LittleEndian.PutUint32(b[at:], uint32(n))
	if _, err := s.w.Write(b); err != nil {
		s.err = err
		return
	}
	s.fresh = false
}

// splitter cuts a binary stream into headers and frames.
type splitter struct {
	kind   streamKind // the kind required, or 0 to take the first header's
	header bool       // a header has been read
}

// next parses the unit at the start of p: a header or a frame. It
// returns the frame's body (nil for a header) and the bytes the unit
// spans; n == 0 with a nil error means p ends inside the unit. The body
// aliases p. A frame's length is bounded by maxFrame and by the bytes
// p holds, never trusted to size an allocation.
func (s *splitter) next(p []byte) (body []byte, n int, err error) {
	if len(p) < len(streamMagic) {
		return nil, 0, nil
	}
	if string(p[:len(streamMagic)]) == streamMagic {
		if len(p) < streamHeaderLen {
			return nil, 0, nil
		}
		if v := p[len(streamMagic)]; v != streamVersion {
			return nil, 0, fmt.Errorf("obs: trace stream version %d (this build reads %d)", v, streamVersion)
		}
		k := streamKind(p[len(streamMagic)+1])
		if k != streamEvents && k != streamSpans {
			return nil, 0, fmt.Errorf("obs: trace stream of unknown %v", k)
		}
		if s.kind != 0 && k != s.kind {
			return nil, 0, fmt.Errorf("obs: %v stream where a %v stream was expected", k, s.kind)
		}
		s.kind, s.header = k, true
		return nil, streamHeaderLen, nil
	}
	if !s.header {
		return nil, 0, errors.New("obs: binary trace stream does not start with a header")
	}
	size := binary.LittleEndian.Uint32(p)
	if size > maxFrame {
		return nil, 0, fmt.Errorf("obs: trace frame length %d exceeds %d", size, maxFrame)
	}
	if uint64(len(p)-frameLenSize) < uint64(size) {
		return nil, 0, nil
	}
	end := frameLenSize + int(size)
	return p[frameLenSize:end], end, nil
}

// decodeEvent decodes one frame body into ev, which it overwrites.
func decodeEvent(body []byte, ev *Event) error {
	*ev = Event{}
	r := ckpt.NewRecordReader(body)
	if err := loadEvent(r, ev); err != nil {
		return err
	}
	return r.Close()
}

// decodeSpan decodes one frame body into sp, which it overwrites.
func decodeSpan(body []byte, sp *Span) error {
	r := ckpt.NewRecordReader(body)
	if err := loadSpan(r, sp); err != nil {
		return err
	}
	return r.Close()
}

// ReadTrace decodes a whole trace: a binary event stream, possibly
// several concatenated, or JSONL, whose blank lines it skips. The first
// bytes tell the two apart.
func ReadTrace(r io.Reader) ([]Event, error) {
	return readAny(r, streamEvents, decodeEvent, ParseEvent)
}

// ReadSpans decodes a whole span stream, binary or JSONL, as ReadTrace
// does events.
func ReadSpans(r io.Reader) ([]Span, error) {
	return readAny(r, streamSpans, decodeSpan, ParseSpan)
}

func readAny[T any](r io.Reader, k streamKind, decode func([]byte, *T) error, parse func([]byte) (T, error)) ([]T, error) {
	br := bufio.NewReader(r)
	if magic, _ := br.Peek(len(streamMagic)); string(magic) != streamMagic {
		return readLines(br, parse)
	}
	data, err := ckpt.ReadAll(br)
	if err != nil {
		return nil, err
	}
	var out []T
	s := splitter{kind: k}
	for off := 0; off < len(data); {
		body, n, err := s.next(data[off:])
		if err == nil && n == 0 {
			err = fmt.Errorf("obs: trace stream ends inside a record (%d bytes left): %w", len(data)-off, io.ErrUnexpectedEOF)
		}
		if err == nil && body != nil {
			var rec T
			out = append(out, rec)
			err = decode(body, &out[len(out)-1])
		}
		if err != nil {
			return nil, fmt.Errorf("obs: %v stream offset %d: %w", k, off, err)
		}
		off += n
	}
	return out, nil
}

// readLines decodes JSONL, one record per line, skipping blank lines.
// A line may be at most 4 MiB.
func readLines[T any](r io.Reader, parse func([]byte) (T, error)) ([]T, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var out []T
	line := 0
	for sc.Scan() {
		line++
		b := sc.Bytes()
		if len(b) == 0 {
			continue
		}
		v, err := parse(b)
		if err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// JSONLWriter renders a binary event or span stream as JSONL on the
// writer it wraps: one AppendJSON or AppendSpanJSON line per record.
// Install one as a tracer sink to stream JSONL (evolve-sim -trace), or
// copy a stream through it (RenderJSONL). Writes may split the stream
// anywhere; a record is rendered once its frame is complete. A
// malformed stream or a failed write fails that Write and every later
// one.
type JSONLWriter struct {
	w    io.Writer
	s    splitter
	pend []byte // input past the last complete unit
	line []byte
	ev   Event
	sp   Span
	err  error
}

// NewJSONLWriter returns a JSONLWriter rendering to w.
func NewJSONLWriter(w io.Writer) *JSONLWriter { return &JSONLWriter{w: w} }

// Write renders every record p completes.
func (j *JSONLWriter) Write(p []byte) (int, error) {
	if j.err != nil {
		return 0, j.err
	}
	in := p
	if len(j.pend) > 0 {
		j.pend = append(j.pend, p...)
		in = j.pend
	}
	for len(in) > 0 {
		body, n, err := j.s.next(in)
		if err == nil && n == 0 {
			break
		}
		if err == nil && body != nil {
			err = j.render(body)
		}
		if err != nil {
			j.err = err
			return 0, err
		}
		in = in[n:]
	}
	j.pend = append(j.pend[:0], in...)
	return len(p), nil
}

// render writes one frame body as a JSON line.
func (j *JSONLWriter) render(body []byte) error {
	if j.s.kind == streamEvents {
		if err := decodeEvent(body, &j.ev); err != nil {
			return err
		}
		j.line = AppendJSON(j.line[:0], &j.ev)
	} else {
		if err := decodeSpan(body, &j.sp); err != nil {
			return err
		}
		j.line = AppendSpanJSON(j.line[:0], &j.sp)
	}
	j.line = append(j.line, '\n')
	_, err := j.w.Write(j.line)
	return err
}

// Close reports the first error and a stream that ended inside a
// header or frame. It does not close the wrapped writer.
func (j *JSONLWriter) Close() error {
	if j.err == nil && len(j.pend) > 0 {
		j.err = fmt.Errorf("obs: trace stream ends inside a record (%d bytes left): %w", len(j.pend), io.ErrUnexpectedEOF)
	}
	return j.err
}

// RenderJSONL renders the binary event or span stream read from src as
// JSONL on dst.
func RenderJSONL(dst io.Writer, src io.Reader) error {
	j := NewJSONLWriter(dst)
	if _, err := io.Copy(j, src); err != nil {
		return err
	}
	return j.Close()
}
