// Package ckpt is the low-level codec for crash-consistent world
// checkpoints: a versioned, deterministic binary format with named
// section markers and a checksummed body. It deliberately knows nothing
// about the simulation — each package serialises its own state through a
// Writer/Reader pair, and the facade's Checkpoint/Restore (the evolve
// package) fixes the section order.
//
// Format: a fixed magic + format version header, then a flat body of
// little-endian primitives, then an 8-byte checksum trailer over the
// body. Strings and byte blobs are length-prefixed. Begin(name) writes
// the section name as a marker string; the reader's Begin verifies it,
// so a skew between writer and reader fails loudly at the first drifted
// section instead of deserialising garbage.
//
// The Writer fills one reused 64 KiB chunk and, per full chunk, updates
// a CRC-32C (Castagnoli, hardware-accelerated) and makes one Write. The
// Reader decodes from an in-memory copy of the whole stream and verifies
// the checksum before the first section is decoded — CRC-32C for
// version 3, the byte-wise FNV-1a of versions 1 and 2 — so a corrupt
// snapshot is rejected before any of it is applied. Length prefixes are
// bounded by the bytes left (Count, Bytes), so a forged count cannot
// allocate more than the stream's own size.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

// Magic identifies an EVOLVE checkpoint stream.
const Magic = "EVCK"

// Version is the checkpoint format version the Writer emits. Readers
// accept MinVersion through Version and expose the stream's version
// (Reader.Version) so section decoders can migrate older layouts.
//
//	1  coordinator and dense hot-state sections only in sharded worlds
//	2  every world carries them (the kernel always runs on shards)
//	3  CRC-32C trailer; tracer rings as binary records, not JSON
const Version uint32 = 3

// MinVersion is the oldest format version Readers still decode.
const MinVersion uint32 = 1

const (
	headerLen  = len(Magic) + 4 // magic + format version
	trailerLen = 8              // checksum
	chunkSize  = 64 << 10
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// checksum is the body checksum of the given format version.
func checksum(version uint32, body []byte) uint64 {
	if version >= 3 {
		return uint64(crc32.Checksum(body, castagnoli))
	}
	h := uint64(14695981039346656037) // FNV-1a
	for _, b := range body {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// Writer serialises primitives into a chunk buffer, checksumming and
// writing each chunk once it fills. Errors are sticky: the first write
// error latches and every later write is skipped, so callers check
// Close once.
type Writer struct {
	w    io.Writer
	buf  []byte // pending chunk
	skip int    // leading bytes of buf outside the checksum (the header)
	crc  uint32
	err  error
}

// NewWriter starts a stream on w with the header. Nothing reaches w
// before the first chunk fills or Close.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{w: w, buf: make([]byte, 0, chunkSize), skip: headerLen}
	cw.buf = append(cw.buf, Magic...)
	cw.buf = binary.LittleEndian.AppendUint32(cw.buf, Version)
	return cw
}

// flush checksums and writes the pending chunk.
func (w *Writer) flush() {
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.skip:])
	w.skip = 0
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) {
	if len(w.buf) == chunkSize {
		w.flush()
	}
	w.buf = append(w.buf, v)
}

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	var b uint8
	if v {
		b = 1
	}
	w.U8(b)
}

// U64 writes an unsigned 64-bit integer.
func (w *Writer) U64(v uint64) {
	if len(w.buf) > chunkSize-8 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 writes a signed 64-bit integer.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int (as 64 bits).
func (w *Writer) Int(v int) { w.U64(uint64(v)) }

// F64 writes a float64 bit-exactly. It repeats U64's body rather than
// calling it, which keeps it within the inlining budget.
func (w *Writer) F64(v float64) {
	if len(w.buf) > chunkSize-8 {
		w.flush()
	}
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

// Dur writes a time.Duration.
func (w *Writer) Dur(v time.Duration) { w.U64(uint64(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) { writeRaw(w, s) }

// Bytes writes a length-prefixed byte blob.
func (w *Writer) Bytes(p []byte) { writeRaw(w, p) }

// writeRaw writes a length prefix and then p, spilling across chunks.
func writeRaw[S string | []byte](w *Writer, p S) {
	w.U64(uint64(len(p)))
	for len(p) > 0 {
		if len(w.buf) == chunkSize {
			w.flush()
		}
		n := min(len(p), chunkSize-len(w.buf))
		w.buf = append(w.buf, p[:n]...)
		p = p[n:]
	}
}

// Begin writes a named section marker; the Reader verifies it in order.
func (w *Writer) Begin(name string) { w.Str(name) }

// Err returns the latched write error, if any.
func (w *Writer) Err() error { return w.err }

// Close checksums the last chunk and writes it with the trailer. It
// does not close the underlying writer.
func (w *Writer) Close() error {
	if len(w.buf) > chunkSize-trailerLen {
		w.flush()
	}
	w.crc = crc32.Update(w.crc, castagnoli, w.buf[w.skip:])
	w.buf = binary.LittleEndian.AppendUint64(w.buf, uint64(w.crc))
	if w.err == nil {
		_, w.err = w.w.Write(w.buf)
	}
	w.buf = w.buf[:0]
	return w.err
}

// Reader deserialises a stream written by Writer. The header is checked
// by the constructor; the checksum too, but a mismatch (or a stream too
// short to hold one) latches into Err and Close rather than failing the
// constructor. Like Writer, errors latch: after the first, every read
// returns a zero value.
type Reader struct {
	p       []byte // unread body
	err     error
	version uint32
}

// ReadAll reads r to EOF into one buffer. When r reports its unread
// length (bytes.Reader, bytes.Buffer, strings.Reader) the buffer is
// sized from it up front, so the stream is copied exactly once.
func ReadAll(r io.Reader) ([]byte, error) {
	n := 0
	if l, ok := r.(interface{ Len() int }); ok {
		n = l.Len()
	}
	buf := bytes.NewBuffer(make([]byte, 0, n+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// NewReader reads the whole stream and returns a Reader over it (see
// NewBytesReader).
func NewReader(r io.Reader) (*Reader, error) {
	p, err := ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("ckpt: reading stream: %w", err)
	}
	return NewBytesReader(p)
}

// NewBytesReader verifies the header of the stream in p and returns a
// Reader decoding from it. p must not change while the Reader is in
// use; Bytes and Str return copies, so nothing decoded aliases it.
func NewBytesReader(p []byte) (*Reader, error) {
	if len(p) < len(Magic) {
		return nil, fmt.Errorf("ckpt: reading magic: %w", io.ErrUnexpectedEOF)
	}
	if string(p[:len(Magic)]) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q (not a checkpoint file)", p[:len(Magic)])
	}
	if len(p) < headerLen {
		return nil, fmt.Errorf("ckpt: reading version: %w", io.ErrUnexpectedEOF)
	}
	cr := &Reader{version: binary.LittleEndian.Uint32(p[len(Magic):])}
	if cr.version < MinVersion || cr.version > Version {
		return nil, fmt.Errorf("ckpt: format version %d (this build reads %d-%d)", cr.version, MinVersion, Version)
	}
	body := p[headerLen:]
	if len(body) < trailerLen {
		cr.err = fmt.Errorf("ckpt: reading checksum: %w", io.ErrUnexpectedEOF)
		return cr, nil
	}
	body, trailer := body[:len(body)-trailerLen], body[len(body)-trailerLen:]
	if got, want := checksum(cr.version, body), binary.LittleEndian.Uint64(trailer); got != want {
		cr.err = fmt.Errorf("ckpt: checksum mismatch (file %016x, computed %016x)", want, got)
		return cr, nil
	}
	cr.p = body
	return cr, nil
}

// Version returns the format version of the stream being read.
func (r *Reader) Version() uint32 { return r.version }

// fail latches err (unless an error is already latched) and drops the
// rest of the body, so every later read returns a zero value.
func (r *Reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.p = nil
}

func (r *Reader) short() { r.fail(fmt.Errorf("ckpt: short read: %w", io.ErrUnexpectedEOF)) }

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if len(r.p) < 1 {
		r.short()
		return 0
	}
	v := r.p[0]
	r.p = r.p[1:]
	return v
}

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U64 reads an unsigned 64-bit integer.
func (r *Reader) U64() uint64 {
	if len(r.p) < 8 {
		r.short()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.p)
	r.p = r.p[8:]
	return v
}

// I64 reads a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int.
func (r *Reader) Int() int { return int(r.U64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Dur reads a time.Duration.
func (r *Reader) Dur() time.Duration { return time.Duration(r.U64()) }

// Count reads the length prefix of a sequence whose elements each take
// at least minBytes bytes of the stream. A count the bytes left cannot
// hold (a negative one included) latches an error and reads as 0, so
// decoders can size allocations and loops from it: a forged count costs
// at most the stream's own size, never a multi-gigabyte make.
func (r *Reader) Count(minBytes int) int {
	n := r.U64()
	if n > uint64(len(r.p)/minBytes) {
		if r.err == nil {
			r.fail(fmt.Errorf("ckpt: count %d exceeds the %d bytes left", int64(n), len(r.p)))
		}
		return 0
	}
	return int(n)
}

// raw reads a length prefix and returns that many body bytes, aliased.
func (r *Reader) raw() []byte {
	n := r.U64()
	if n > uint64(len(r.p)) {
		if r.err == nil {
			r.fail(fmt.Errorf("ckpt: blob length %d exceeds the %d bytes left", n, len(r.p)))
		}
		return nil
	}
	p := r.p[:n]
	r.p = r.p[n:]
	return p
}

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.raw()) }

// Bytes reads a length-prefixed byte blob into a new slice.
func (r *Reader) Bytes() []byte { return append([]byte{}, r.raw()...) }

// Begin reads a section marker and verifies it matches name.
func (r *Reader) Begin(name string) {
	if got := r.raw(); r.err == nil && string(got) != name {
		r.fail(fmt.Errorf("ckpt: section marker %q, want %q (writer/reader drift)", got, name))
	}
}

// Err returns the latched read error, if any.
func (r *Reader) Err() error { return r.err }

// Close returns the latched error, if any, and otherwise checks that
// the whole body was consumed: bytes left over mean the reader and the
// writer disagree about the layout.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	if len(r.p) > 0 {
		return fmt.Errorf("ckpt: %d unconsumed bytes before the checksum trailer", len(r.p))
	}
	return nil
}
