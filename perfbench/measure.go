package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
)

// tally counts what a run attempted — benchmark calls into the program
// and output checks — and which of them failed; error_rate is their
// ratio.
type tally struct {
	attempted, failed int
	failures          []string
}

// call records one call into the program and reports whether it
// succeeded.
func (t *tally) call(what string, err error) bool {
	t.attempted++
	if err != nil {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf("call %s: %v", what, err))
		return false
	}
	return true
}

// check records one output check and reports whether it passed.
func (t *tally) check(name string, ok bool, detail string) bool {
	t.attempted++
	if !ok {
		t.failed++
		t.failures = append(t.failures, fmt.Sprintf("check %s: %s", name, detail))
	}
	return ok
}

// memSample reads the two runtime/metrics figures the run reports.
type memSample struct {
	s      [2]metrics.Sample
	allocs uint64 // heap objects allocated since process start
	live   uint64 // live heap bytes as of the last GC
}

func (m *memSample) read() {
	m.s[0].Name = "/gc/heap/allocs:objects"
	m.s[1].Name = "/gc/heap/live:bytes"
	metrics.Read(m.s[:])
	m.allocs = m.s[0].Value.Uint64()
	m.live = m.s[1].Value.Uint64()
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN() // caught by the domain check
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func nsToMS(ns []int64) []float64 {
	out := make([]float64, len(ns))
	for i, v := range ns {
		out[i] = float64(v) / 1e6
	}
	return out
}

func maxOf(xs []float64) float64 {
	m := math.NaN()
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when nothing was attempted (b == 0): a rate of an
// operation that never ran on this workload.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// host describes the machine a result was measured on.
type host struct {
	NumCPU         int    `json:"num_cpu"`
	GOMAXPROCS     int    `json:"gomaxprocs"`
	GoVersion      string `json:"go_version"`
	OSArch         string `json:"os_arch"`
	CPUModel       string `json:"cpu_model"`
	Shards         int    `json:"shards"`
	ShardWorkers   int    `json:"shard_workers"`
	CtrlWorkers    int    `json:"ctrl_workers"`
	Oversubscribed bool   `json:"oversubscribed"`
}

// hostStamp records the host and flags a run whose GOMAXPROCS, shard
// count or worker counts exceed the CPUs it may use.
func hostStamp(spec Spec) host {
	h := host{
		NumCPU:       runtime.NumCPU(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		GoVersion:    runtime.Version(),
		OSArch:       runtime.GOOS + "/" + runtime.GOARCH,
		CPUModel:     cpuModel(),
		Shards:       spec.Opts.Shards,
		ShardWorkers: spec.Opts.ShardWorkers,
		CtrlWorkers:  spec.Opts.CtrlWorkers,
	}
	for _, n := range []int{h.GOMAXPROCS, h.Shards, h.ShardWorkers, h.CtrlWorkers} {
		if n > h.NumCPU {
			h.Oversubscribed = true
		}
	}
	return h
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
