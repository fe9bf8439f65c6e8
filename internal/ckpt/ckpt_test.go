package ckpt

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("header")
	w.U8(7)
	w.Bool(true)
	w.Bool(false)
	w.U64(1<<63 + 12345)
	w.I64(-42)
	w.Int(99)
	w.F64(math.Pi)
	w.F64(math.Inf(-1))
	w.F64(0.1)
	w.Dur(90 * time.Minute)
	w.Str("hello, 世界")
	w.Bytes([]byte{0, 1, 2, 255})
	w.Begin("trailer")
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("NewReader: %v", err)
	}
	r.Begin("header")
	if got := r.U8(); got != 7 {
		t.Errorf("U8 = %d", got)
	}
	if !r.Bool() || r.Bool() {
		t.Error("Bool round-trip failed")
	}
	if got := r.U64(); got != 1<<63+12345 {
		t.Errorf("U64 = %d", got)
	}
	if got := r.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := r.Int(); got != 99 {
		t.Errorf("Int = %d", got)
	}
	if got := r.F64(); got != math.Pi {
		t.Errorf("F64 = %v", got)
	}
	if got := r.F64(); !math.IsInf(got, -1) {
		t.Errorf("F64 inf = %v", got)
	}
	if got := r.F64(); got != 0.1 {
		t.Errorf("F64 = %v", got)
	}
	if got := r.Dur(); got != 90*time.Minute {
		t.Errorf("Dur = %v", got)
	}
	if got := r.Str(); got != "hello, 世界" {
		t.Errorf("Str = %q", got)
	}
	if got := r.Bytes(); !bytes.Equal(got, []byte{0, 1, 2, 255}) {
		t.Errorf("Bytes = %v", got)
	}
	r.Begin("trailer")
	if err := r.Close(); err != nil {
		t.Fatalf("reader Close: %v", err)
	}
}

func TestSectionDrift(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("alpha")
	w.U64(1)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r, err := NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("beta")
	if r.Err() == nil || !strings.Contains(r.Err().Error(), "section marker") {
		t.Fatalf("want section-marker error, got %v", r.Err())
	}
}

func TestChecksumCatchesCorruption(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Begin("s")
	w.U64(0xdeadbeef)
	w.Str("payload")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[len(b)-12] ^= 0x40 // flip a payload bit (not in the checksum trailer)
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	r.Begin("s")
	r.U64()
	r.Str()
	if err := r.Close(); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("want checksum error, got %v", err)
	}
}

func TestBadMagicAndVersion(t *testing.T) {
	if _, err := NewReader(strings.NewReader("NOPE....")); err == nil {
		t.Fatal("want bad-magic error")
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4]++ // bump format version
	if _, err := NewReader(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("want version error, got %v", err)
	}
	b[4] = byte(MinVersion) // oldest still-readable version
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("version %d rejected: %v", MinVersion, err)
	}
	if r.Version() != MinVersion {
		t.Errorf("Version() = %d, want %d", r.Version(), MinVersion)
	}
	b[4] = byte(MinVersion - 1)
	if _, err := NewReader(bytes.NewReader(b)); err == nil {
		t.Fatalf("version %d accepted", MinVersion-1)
	}
}

func TestTruncation(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Str("a long enough payload to truncate meaningfully")
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()[:buf.Len()-20]
	r, err := NewReader(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	r.Str()
	if r.Err() == nil {
		// Str may have read short; Close must then fail.
		if err := r.Close(); err == nil {
			t.Fatal("truncated stream round-tripped cleanly")
		}
	}
}
