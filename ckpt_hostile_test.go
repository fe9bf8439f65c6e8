package evolve

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"runtime"
	"sync"
	"testing"
	"time"

	"evolve/internal/race"
)

// Hostile-input tests for Restore: a checkpoint file is external input,
// so corrupt, truncated or forged snapshots must fail with an error —
// never a panic, a hang or an allocation out of proportion to the file.

var (
	hostileOnce sync.Once
	hostileSnap []byte
)

// hostileSnapshot returns a version 3 snapshot of the traced 2-shard
// ckptWorld at 30m (every section populated: timers, coordinator,
// batch and HPC jobs mid-flight, chaos, both tracer rings). Callers
// must not modify it.
func hostileSnapshot(t testing.TB) []byte {
	hostileOnce.Do(func() {
		c := ckptWorld(t, 2, "mixed")
		if err := c.Run(30 * time.Minute); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := c.Checkpoint(&buf); err != nil {
			t.Fatal(err)
		}
		hostileSnap = buf.Bytes()
	})
	if hostileSnap == nil {
		t.Fatal("no snapshot")
	}
	return hostileSnap
}

// reseal recomputes a version 3 snapshot's CRC-32C trailer in place, so
// a mutated body passes the checksum and reaches the section decoders.
func reseal(b []byte) {
	if len(b) < 16 {
		return
	}
	body := b[8 : len(b)-8]
	binary.LittleEndian.PutUint64(b[len(b)-8:], uint64(crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli))))
}

// Fuzz modes: how FuzzRestore turns its input into a snapshot.
const (
	fuzzRaw      = iota // the patch bytes are the whole stream
	fuzzTruncate        // the valid snapshot cut at the offset
	fuzzFlip            // patch XORed into the snapshot at the offset
	fuzzReseal          // as fuzzFlip, then the CRC re-sealed
	numFuzzModes
)

// FuzzRestore feeds Restore arbitrary bytes and truncated, bit-flipped
// and bit-flipped-then-resealed copies of a valid snapshot. Raw,
// truncated and flipped streams must fail (the checksum is verified
// before anything is decoded); resealed ones reach the section decoders
// and may legitimately restore — a flipped float is a valid world — but
// must not panic. A hang shows up as the test timing out.
func FuzzRestore(f *testing.F) {
	f.Add(uint8(fuzzRaw), uint32(0), []byte("EVCK\x03\x00\x00\x00"))
	f.Add(uint8(fuzzRaw), uint32(0), []byte("EVCK\x03\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(uint8(fuzzTruncate), uint32(1000), []byte{})
	f.Add(uint8(fuzzTruncate), uint32(200000), []byte{})
	f.Add(uint8(fuzzFlip), uint32(30), []byte{0x01})
	f.Add(uint8(fuzzFlip), uint32(150000), []byte{0x80, 0x00, 0x40})
	f.Add(uint8(fuzzReseal), uint32(12), []byte{0xff})
	f.Add(uint8(fuzzReseal), uint32(5000), []byte{0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80})
	f.Add(uint8(fuzzReseal), uint32(100000), []byte{0x10})
	f.Add(uint8(fuzzReseal), uint32(250000), []byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, mode uint8, at uint32, patch []byte) {
		snap := hostileSnapshot(t)
		var data []byte
		mustFail := true
		switch mode % numFuzzModes {
		case fuzzRaw:
			data = patch
		case fuzzTruncate:
			data = snap[:int(at)%len(snap)]
		case fuzzFlip, fuzzReseal:
			data = append([]byte(nil), snap...)
			changed := false
			for i, b := range patch {
				j := (int(at) + i) % len(data)
				data[j] ^= b
				changed = changed || b != 0
			}
			if mode%numFuzzModes == fuzzReseal {
				reseal(data)
				mustFail = false
			} else {
				mustFail = changed
			}
		}
		c := ckptWorld(t, 2, "mixed")
		err := c.Restore(bytes.NewReader(data))
		if mustFail && err == nil {
			t.Fatalf("mode %d: a corrupt snapshot (%d bytes) restored without error", mode%numFuzzModes, len(data))
		}
	})
}

// TestRestoreForgedCountBounded forges the sample count of one metric
// series in a valid snapshot, re-seals the checksum so the forgery
// reaches the decoder, and checks that Restore fails without allocating
// for the forged count: every length prefix is bounded by the bytes
// left in the stream.
func TestRestoreForgedCountBounded(t *testing.T) {
	snap := append([]byte(nil), hostileSnapshot(t)...)
	// The metrics section: marker string, series count, then the first
	// series' name and sample count.
	marker := append(binary.LittleEndian.AppendUint64(nil, uint64(len("metrics"))), "metrics"...)
	i := bytes.Index(snap, marker)
	if i < 0 {
		t.Fatal("no metrics section in the snapshot")
	}
	off := i + len(marker) + 8
	nameLen := int(binary.LittleEndian.Uint64(snap[off:]))
	if nameLen <= 0 || nameLen > 256 {
		t.Fatalf("first series name length %d: layout drifted", nameLen)
	}
	off += 8 + nameLen
	const forged = 1 << 24 // 256 MiB of samples
	binary.LittleEndian.PutUint64(snap[off:], forged)
	reseal(snap)

	c := ckptWorld(t, 2, "mixed")
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err := c.Restore(bytes.NewReader(snap))
	runtime.ReadMemStats(&m1)
	if err == nil {
		t.Fatal("a forged sample count restored without error")
	}
	if grew, limit := m1.TotalAlloc-m0.TotalAlloc, uint64(4*len(snap)); grew > limit {
		t.Errorf("Restore of a %d-byte snapshot allocated %d bytes before failing (limit %d): %v", len(snap), grew, limit, err)
	}
}

// TestCheckpointEncodeAllocs gates the encoder's allocations: they must
// not grow with simulated history (1h and 2h of it allocate the same)
// and stay within a small fixed budget — sections stream through one
// chunk buffer instead of per-record encodings.
func TestCheckpointEncodeAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates; the budget holds in plain builds")
	}
	const budget = 20
	allocs := func(d time.Duration) float64 {
		c := ckptWorld(t, 2, "mixed")
		if err := c.Run(d); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := c.Checkpoint(io.Discard); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, two := allocs(time.Hour), allocs(2*time.Hour)
	if one != two {
		t.Errorf("Checkpoint allocates %v times at 1h of history, %v at 2h: allocations grow with history", one, two)
	}
	if two > budget {
		t.Errorf("Checkpoint allocates %v times, budget %d", two, budget)
	}
}

// benchWorld is the traced 2-shard ckptWorld run for an hour, the world
// BenchmarkCheckpoint encodes and BenchmarkRestore decodes.
func benchWorld(b *testing.B) (*Cluster, []byte) {
	c := ckptWorld(b, 2, "mixed")
	if err := c.Run(time.Hour); err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Checkpoint(&buf); err != nil {
		b.Fatal(err)
	}
	return c, buf.Bytes()
}

func BenchmarkCheckpoint(b *testing.B) {
	c, snap := benchWorld(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Checkpoint(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestore times Restore alone; building the fresh world it
// restores into is excluded.
func BenchmarkRestore(b *testing.B) {
	_, snap := benchWorld(b)
	b.SetBytes(int64(len(snap)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := ckptWorld(b, 2, "mixed")
		b.StartTimer()
		if err := c.Restore(bytes.NewReader(snap)); err != nil {
			b.Fatal(err)
		}
	}
}
