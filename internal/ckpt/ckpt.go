// Package ckpt is the low-level codec for crash-consistent world
// checkpoints: a versioned, deterministic binary format with named
// section markers and a running checksum. It deliberately knows nothing
// about the simulation — each package serialises its own state through a
// Writer/Reader pair, and internal/ckpt/world fixes the section order.
//
// Format: a fixed magic + format version header, then a flat stream of
// little-endian primitives. Strings and byte blobs are length-prefixed.
// Begin(name) writes the section name as a marker string; the reader's
// Begin verifies it, so a skew between writer and reader fails loudly at
// the first drifted section instead of deserialising garbage. The
// trailing 64-bit FNV-1a checksum covers every byte after the header and
// catches truncated or corrupted files.
package ckpt

import (
	"bufio"
	"encoding/binary"
	"fmt"
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
const Version uint32 = 2

// MinVersion is the oldest format version Readers still decode.
const MinVersion uint32 = 1

// Writer serialises primitives to an underlying stream, checksumming as
// it goes. Errors are sticky: the first write error latches and every
// later call is a no-op, so callers check Close once.
type Writer struct {
	w   *bufio.Writer
	sum hash64
	err error
	buf [8]byte
}

// hash64 is the running FNV-1a state (inlined writes, no interface).
type hash64 struct{ h uint64 }

func newHash64() hash64 { return hash64{h: 14695981039346656037} }

func (s *hash64) write(p []byte) {
	h := s.h
	for _, b := range p {
		h = (h ^ uint64(b)) * 1099511628211
	}
	s.h = h
}

// NewWriter writes the header and returns a Writer.
func NewWriter(w io.Writer) *Writer {
	cw := &Writer{w: bufio.NewWriter(w), sum: newHash64()}
	if _, err := cw.w.WriteString(Magic); err != nil {
		cw.err = err
	}
	cw.writeRaw(uint64(Version), 4)
	return cw
}

func (w *Writer) writeRaw(v uint64, n int) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:], v)
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		w.err = err
	}
}

func (w *Writer) write(v uint64, n int) {
	if w.err != nil {
		return
	}
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.sum.write(w.buf[:n])
	if _, err := w.w.Write(w.buf[:n]); err != nil {
		w.err = err
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.write(uint64(v), 1) }

// Bool writes a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U64 writes an unsigned 64-bit integer.
func (w *Writer) U64(v uint64) { w.write(v, 8) }

// I64 writes a signed 64-bit integer.
func (w *Writer) I64(v int64) { w.write(uint64(v), 8) }

// Int writes an int (as 64 bits).
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 bit-exactly.
func (w *Writer) F64(v float64) { w.write(math.Float64bits(v), 8) }

// Dur writes a time.Duration.
func (w *Writer) Dur(v time.Duration) { w.I64(int64(v)) }

// Str writes a length-prefixed string.
func (w *Writer) Str(s string) {
	w.U64(uint64(len(s)))
	if w.err != nil {
		return
	}
	w.sum.write([]byte(s))
	if _, err := w.w.WriteString(s); err != nil {
		w.err = err
	}
}

// Bytes writes a length-prefixed byte blob.
func (w *Writer) Bytes(p []byte) {
	w.U64(uint64(len(p)))
	if w.err != nil {
		return
	}
	w.sum.write(p)
	if _, err := w.w.Write(p); err != nil {
		w.err = err
	}
}

// Begin writes a named section marker; the Reader verifies it in order.
func (w *Writer) Begin(name string) { w.Str(name) }

// Err returns the latched write error, if any.
func (w *Writer) Err() error { return w.err }

// Close writes the trailing checksum and flushes. It does not close the
// underlying writer.
func (w *Writer) Close() error {
	sum := w.sum.h
	w.writeRaw(sum, 8)
	if w.err != nil {
		return w.err
	}
	return w.w.Flush()
}

// Reader deserialises a stream written by Writer, verifying the header
// up front and the checksum via Close. Like Writer, errors latch.
type Reader struct {
	r       *bufio.Reader
	sum     hash64
	err     error
	buf     [8]byte
	version uint32
}

// NewReader verifies the header and returns a Reader.
func NewReader(r io.Reader) (*Reader, error) {
	cr := &Reader{r: bufio.NewReader(r), sum: newHash64()}
	var magic [4]byte
	if _, err := io.ReadFull(cr.r, magic[:]); err != nil {
		return nil, fmt.Errorf("ckpt: reading magic: %w", err)
	}
	if string(magic[:]) != Magic {
		return nil, fmt.Errorf("ckpt: bad magic %q (not a checkpoint file)", magic[:])
	}
	if _, err := io.ReadFull(cr.r, cr.buf[:4]); err != nil {
		return nil, fmt.Errorf("ckpt: reading version: %w", err)
	}
	cr.version = binary.LittleEndian.Uint32(cr.buf[:4])
	if cr.version < MinVersion || cr.version > Version {
		return nil, fmt.Errorf("ckpt: format version %d (this build reads %d-%d)", cr.version, MinVersion, Version)
	}
	return cr, nil
}

// Version returns the format version of the stream being read.
func (r *Reader) Version() uint32 { return r.version }

func (r *Reader) read(n int) uint64 {
	if r.err != nil {
		return 0
	}
	if _, err := io.ReadFull(r.r, r.buf[:n]); err != nil {
		r.err = fmt.Errorf("ckpt: short read: %w", err)
		return 0
	}
	r.sum.write(r.buf[:n])
	for i := n; i < 8; i++ {
		r.buf[i] = 0 // only n bytes are valid; clear stale high bytes
	}
	return binary.LittleEndian.Uint64(r.buf[:])
}

// U8 reads one byte.
func (r *Reader) U8() uint8 { return uint8(r.read(1)) }

// Bool reads a boolean.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U64 reads an unsigned 64-bit integer.
func (r *Reader) U64() uint64 { return r.read(8) }

// I64 reads a signed 64-bit integer.
func (r *Reader) I64() int64 { return int64(r.read(8)) }

// Int reads an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64.
func (r *Reader) F64() float64 { return math.Float64frombits(r.read(8)) }

// Dur reads a time.Duration.
func (r *Reader) Dur() time.Duration { return time.Duration(r.I64()) }

// maxBlob bounds length prefixes so a corrupted stream cannot force a
// multi-gigabyte allocation before the checksum check catches it.
const maxBlob = 1 << 31

// Str reads a length-prefixed string.
func (r *Reader) Str() string { return string(r.Bytes()) }

// Bytes reads a length-prefixed byte blob.
func (r *Reader) Bytes() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > maxBlob {
		r.err = fmt.Errorf("ckpt: blob length %d exceeds limit", n)
		return nil
	}
	p := make([]byte, n)
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.err = fmt.Errorf("ckpt: short blob read: %w", err)
		return nil
	}
	r.sum.write(p)
	return p
}

// Begin reads a section marker and verifies it matches name.
func (r *Reader) Begin(name string) {
	got := r.Str()
	if r.err == nil && got != name {
		r.err = fmt.Errorf("ckpt: section marker %q, want %q (writer/reader drift)", got, name)
	}
}

// Err returns the latched read error, if any.
func (r *Reader) Err() error { return r.err }

// Close reads and verifies the trailing checksum.
func (r *Reader) Close() error {
	if r.err != nil {
		return r.err
	}
	want := r.sum.h
	if _, err := io.ReadFull(r.r, r.buf[:8]); err != nil {
		return fmt.Errorf("ckpt: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint64(r.buf[:8]); got != want {
		return fmt.Errorf("ckpt: checksum mismatch (file %016x, computed %016x)", got, want)
	}
	return nil
}
