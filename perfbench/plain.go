package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"evolve"
)

// Set-up and resume are timed several times per run and reported as
// medians: at least minRepeats times, and on until the repeats have
// taken repeatBudget of wall time (a small world sets up in tens of
// milliseconds, where one sample is mostly noise), but never more than
// maxRepeats times. Every set-up must reach the same outcome after
// warm-up and every resume the same Report.
const (
	minRepeats   = 3
	maxRepeats   = 25
	repeatBudget = 1500 * time.Millisecond
)

// moreRepeats reports whether a timed repeat should run again after n
// repeats that took spent in total.
func moreRepeats(n int, spent time.Duration) bool {
	return n < minRepeats || (n < maxRepeats && spent < repeatBudget)
}

// sink is a JSONL trace sink backed by a buffered temp file that counts
// the bytes it is handed and the wall time spent writing them. The
// tracer calls Write under its own lock, but the counters are read from
// the benchmark goroutine, so they are atomic.
type sink struct {
	f     *os.File
	bw    *bufio.Writer
	ns    atomic.Int64
	bytes atomic.Int64
}

func newSink(dir, name string) (*sink, error) {
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return nil, err
	}
	return &sink{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (s *sink) Write(p []byte) (int, error) {
	t := time.Now()
	n, err := s.bw.Write(p)
	s.ns.Add(time.Since(t).Nanoseconds())
	s.bytes.Add(int64(n))
	return n, err
}

// close flushes and closes the file; the caller removes the directory.
func (s *sink) close() error {
	err := s.bw.Flush()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// world is one facade-built world plus the per-step extras the workload
// asks for (scrape after every step, checkpoint on the cadence), with
// the wall time and size of each extra recorded.
type world struct {
	spec          Spec
	c             *evolve.Cluster
	events, spans *sink

	ckptBuf   bytes.Buffer
	ckptNs    []int64
	ckptBytes []int
	ckptAt    []time.Duration
	scrapeNs  []int64
	scrapeLen []int
}

// buildWorld constructs the workload through the facade, with sinks in
// dir when the workload traces.
func buildWorld(spec Spec, dir string) (*world, error) {
	w := &world{spec: spec}
	var ev, sp io.Writer = io.Discard, io.Discard
	if spec.Trace {
		var err error
		if w.events, err = newSink(dir, "events.jsonl"); err != nil {
			return nil, err
		}
		if w.spans, err = newSink(dir, "spans.jsonl"); err != nil {
			return nil, err
		}
		ev, sp = w.events, w.spans
	}
	c, err := spec.Build(ev, sp)
	if err != nil {
		return nil, err
	}
	w.c = c
	return w, nil
}

// step advances one control period and then runs the extras. It returns
// the wall time of the Run call alone.
func (w *world) step(t *tally) (time.Duration, bool) {
	t0 := time.Now()
	err := w.c.Run(stepDur)
	d := time.Since(t0)
	if !t.call("Run", err) {
		return d, false
	}
	if w.spec.Scrape {
		var b countingWriter
		t0 = time.Now()
		err := w.c.WriteMetrics(&b)
		w.scrapeNs = append(w.scrapeNs, time.Since(t0).Nanoseconds())
		w.scrapeLen = append(w.scrapeLen, b.n)
		if !t.call("WriteMetrics", err) {
			return d, false
		}
	}
	if w.spec.CkptEvery > 0 && w.c.Now()%w.spec.CkptEvery == 0 {
		if !t.call("Checkpoint", w.checkpoint()) {
			return d, false
		}
	}
	return d, true
}

// checkpoint encodes the world into the reused buffer and records it.
func (w *world) checkpoint() error {
	w.ckptBuf.Reset()
	t0 := time.Now()
	err := w.c.Checkpoint(&w.ckptBuf)
	w.ckptNs = append(w.ckptNs, time.Since(t0).Nanoseconds())
	w.ckptBytes = append(w.ckptBytes, w.ckptBuf.Len())
	w.ckptAt = append(w.ckptAt, w.c.Now())
	return err
}

func (w *world) close() error {
	var err error
	for _, s := range []*sink{w.events, w.spans} {
		if s != nil {
			if cerr := s.close(); err == nil {
				err = cerr
			}
		}
	}
	return err
}

// countingWriter discards what it is given and counts the bytes.
type countingWriter struct{ n int }

func (c *countingWriter) Write(p []byte) (int, error) { c.n += len(p); return len(p), nil }

// outcome is the simulated outcome two runs of one seed must agree on:
// the rendered Report plus the operational journal.
func outcome(r evolve.Report, evs []evolve.EventRecord) string {
	var b strings.Builder
	b.WriteString(r.String())
	for _, e := range evs {
		fmt.Fprintf(&b, "%d %s %s %s\n", e.At, e.Kind, e.Object, e.Message)
	}
	return b.String()
}

// withoutSpanCounts drops the span counters from a Report. The
// layer-timed run turns on the cluster's phase timing, which also emits
// phase spans when a tracer is attached, so only the span counters may
// differ from the plain run.
func withoutSpanCounts(r evolve.Report) evolve.Report {
	r.TraceSpans, r.TraceSpansDropped = 0, 0
	return r
}

// plainResult is what the plain (uninstrumented) run measured.
type plainResult struct {
	setupS []float64

	episodes []episode // completed inside the window
	stepNs   []int64   // every step of the window, episode after episode
	allocs   uint64    // over the window, rewinds excluded
	peakHeap uint64    // live heap after a collection at each episode's end, largest

	// The first episode's end: its Report and outcome, unmasked and with
	// the span counters masked for the layer-timed comparison.
	report     evolve.Report
	outcome    string
	outcomeCmp string

	pending []float64 // per-tick pending-pod samples over the window

	ckptNs    []int64
	ckptBytes []int
	ckptAt    []time.Duration
	scrapeNs  []int64
	scrapeLen []int

	sinkNs, eventBytes, spanBytes  int64
	traceEvents, traceSpans, drops uint64

	resumeS  []float64
	decodeNs []int64
}

// episode is one completed episode's wall time, CPU time and steps.
type episode struct {
	wallNs int64
	cpuS   float64
	stepNs []int64
}

// vsec is the virtual time the window simulated.
func (r *plainResult) vsec() float64 { return float64(len(r.stepNs)) * stepDur.Seconds() }

// runPlain sets the world up several times, checks that a checkpoint
// of the last one resumes, and measures for window of wall time. The
// window runs episodes, and the timing metrics are medians over them.
// Each episode simulates EpisodeSteps steps from the set-up checkpoint
// and is then rewound by restoring that checkpoint into a fresh world,
// outside the episode's timing. Every episode must end in the same
// outcome. Rewinding keeps the simulated history, and so the heap and the
// checkpoint size, the same length on every run, however fast the build
// is. The window always finishes its first episode. It returns false if
// a call failed, after which the result is incomplete.
func runPlain(spec Spec, window time.Duration, dir string, t *tally) (*plainResult, bool) {
	r := &plainResult{}
	var w *world
	var warmupOut string
	var spent time.Duration
	for i := 0; moreRepeats(i, spent); i++ {
		if w != nil {
			if !t.call("close sinks", w.close()) {
				return r, false
			}
		}
		runtime.GC() // every repeat starts from a collected heap
		t0 := time.Now()
		var err error
		w, err = buildWorld(spec, dir)
		if !t.call("build", err) {
			return r, false
		}
		for s := 0; s < spec.WarmupSteps; s++ {
			if _, ok := w.step(t); !ok {
				return r, false
			}
		}
		d := time.Since(t0)
		spent += d
		r.setupS = append(r.setupS, d.Seconds())
		out := outcome(w.c.Report(), w.c.Events())
		if i == 0 {
			warmupOut = out
		} else {
			t.check("repeat-determinism", out == warmupOut,
				fmt.Sprintf("set-up %d reached a different outcome after warm-up than set-up 0", i))
		}
	}
	defer w.close()
	snap, ok := resume(spec, w, r, t)
	if !ok {
		return r, false
	}

	// Measurement window: only the facade calls the workload makes.
	var ev0, sp0, sink0 int64
	if spec.Trace {
		ev0, sp0 = w.events.bytes.Load(), w.spans.bytes.Load()
		sink0 = w.events.ns.Load() + w.spans.ns.Load()
	}
	start := w.c.Report()
	episodeEnd := w.c.Now() + time.Duration(spec.EpisodeSteps)*stepDur
	runtime.GC()
	var mem memSample
	mem.read()
	allocs0 := mem.allocs
	var rewindAllocs uint64
	t0 := time.Now()
	epFirst, epT0, epCPU0 := 0, t0, cpuSeconds()
	for {
		d, ok := w.step(t)
		if !ok {
			return r, false
		}
		r.stepNs = append(r.stepNs, d.Nanoseconds())
		done := time.Since(t0) >= window
		if w.c.Now() < episodeEnd {
			if done && len(r.episodes) > 0 {
				r.addTrace(w, start)
				break
			}
			continue
		}
		r.episodes = append(r.episodes, episode{
			wallNs: time.Since(epT0).Nanoseconds(),
			cpuS:   cpuSeconds() - epCPU0,
			stepNs: r.stepNs[epFirst:],
		})
		// The episode's checks and the rewind are not the workload's
		// work; only their allocations need taking out of the window's.
		mem.read()
		a0 := mem.allocs
		if !r.endEpisode(spec, w, start, t) {
			return r, false
		}
		// The episode's end holds its longest simulated history: the
		// live heap after a full collection there is the run's peak.
		runtime.GC()
		mem.read()
		r.peakHeap = max(r.peakHeap, mem.live)
		if !done {
			c, err := restore(spec, snap, w.events, w.spans, r)
			if !t.call("Restore", err) {
				return r, false
			}
			w.c = c
		}
		mem.read()
		rewindAllocs += mem.allocs - a0
		if done {
			break
		}
		epFirst, epT0, epCPU0 = len(r.stepNs), time.Now(), cpuSeconds()
	}
	mem.read()
	r.allocs = mem.allocs - allocs0 - rewindAllocs
	if spec.Trace {
		r.eventBytes = w.events.bytes.Load() - ev0
		r.spanBytes = w.spans.bytes.Load() - sp0
		r.sinkNs = w.events.ns.Load() + w.spans.ns.Load() - sink0
	}
	r.ckptNs, r.ckptBytes, r.ckptAt, r.scrapeNs, r.scrapeLen = w.ckptNs, w.ckptBytes, w.ckptAt, w.scrapeNs, w.scrapeLen
	return r, true
}

// endEpisode checks a finished episode against the first and collects
// its backlog samples and trace counts.
func (r *plainResult) endEpisode(spec Spec, w *world, start evolve.Report, t *tally) bool {
	rep := w.c.Report()
	out := outcome(rep, w.c.Events())
	if len(r.episodes) == 1 {
		r.report, r.outcome = rep, out
		r.outcomeCmp = outcome(withoutSpanCounts(rep), w.c.Events())
	} else {
		t.check("episode-determinism", out == r.outcome,
			fmt.Sprintf("episode %d ended in a different outcome than episode 0", len(r.episodes)-1))
	}
	r.addTrace(w, start)
	samples, err := w.c.SeriesSamples("cluster/pending")
	if !t.call("SeriesSamples", err) {
		return false
	}
	for _, s := range samples {
		if s.At > start.Elapsed {
			r.pending = append(r.pending, s.Value)
		}
	}
	if spec.BoundedBacklog {
		checkBacklog(spec, samples, start.Elapsed, t)
	}
	return true
}

// addTrace adds the tracer records of the episode so far.
func (r *plainResult) addTrace(w *world, start evolve.Report) {
	rep := w.c.Report()
	r.traceEvents += rep.TraceEvents - start.TraceEvents
	r.traceSpans += rep.TraceSpans - start.TraceSpans
	r.drops += rep.TraceDropped + rep.TraceSpansDropped - start.TraceDropped - start.TraceSpansDropped
}

// restore builds a fresh world whose sinks are ev and sp and restores
// snap into it, recording the build-plus-restore and restore-alone
// wall times as resume samples.
func restore(spec Spec, snap []byte, ev, sp io.Writer, r *plainResult) (*evolve.Cluster, error) {
	t0 := time.Now()
	c, err := spec.Build(ev, sp)
	if err != nil {
		return nil, err
	}
	d0 := time.Now()
	err = c.Restore(bytes.NewReader(snap))
	r.decodeNs = append(r.decodeNs, time.Since(d0).Nanoseconds())
	r.resumeS = append(r.resumeS, time.Since(t0).Seconds())
	return c, err
}

// resume checkpoints the set-up world and restores the snapshot into
// fresh worlds, each of which must report exactly what the original
// does. It returns the snapshot, which every episode starts from.
func resume(spec Spec, w *world, r *plainResult, t *tally) ([]byte, bool) {
	w.ckptNs, w.ckptBytes, w.ckptAt = nil, nil, nil
	if !t.call("Checkpoint", w.checkpoint()) {
		return nil, false
	}
	snap := append([]byte(nil), w.ckptBuf.Bytes()...)
	want := w.c.Report().String()
	var spent time.Duration
	for i := 0; moreRepeats(i, spent); i++ {
		runtime.GC() // every repeat starts from a collected heap
		fresh, err := restore(spec, snap, io.Discard, io.Discard, r)
		if !t.call("Restore", err) {
			return nil, false
		}
		spent += time.Duration(r.resumeS[len(r.resumeS)-1] * float64(time.Second))
		t.check("restore-report", fresh.Report().String() == want,
			"the restored world's Report differs from the original's")
	}
	return snap, true
}

// checkBacklog fails the run if the pending backlog does not drain to
// zero at least once in every full diurnal period of an episode: a
// backlog that never empties at the trough is one that keeps growing.
func checkBacklog(spec Spec, samples []evolve.SeriesSample, from time.Duration, t *tally) {
	period := spec.diurnalPeriod()
	var end time.Duration
	if n := len(samples); n > 0 {
		end = samples[n-1].At
	}
	if end-from < period {
		t.check("bounded-backlog", false, fmt.Sprintf("episode of %v is shorter than one diurnal period (%v)", end-from, period))
		return
	}
	for lo := from; lo+period <= end; lo += period {
		drained := false
		for _, s := range samples {
			if s.At > lo && s.At <= lo+period && s.Value == 0 {
				drained = true
				break
			}
		}
		if !t.check("bounded-backlog", drained, fmt.Sprintf("pending backlog never drained in (%v, %v]", lo, lo+period)) {
			return
		}
	}
}
