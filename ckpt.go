package evolve

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"evolve/internal/ckpt"
	"evolve/internal/cluster"
	"evolve/internal/sim"
)

// Crash-consistent checkpoint/restore for the whole simulated world.
//
// Checkpoint serialises, in a fixed section order, everything mutable:
// the engine clock, RNG position and pending-timer set (as TimerTag
// descriptors — closures re-attach on restore), the shard coordinator,
// the batch runner, the HPC queue, the cluster substrate, the hardened
// control loop, the chaos injector and the tracer rings. Restore runs
// against a freshly constructed Cluster built with the same Options and
// the same AddService / SetLoad / Submit* calls — construction-time
// configuration (topology, specs, load functions, callbacks) is code,
// not data, so only runtime state crosses the file boundary.
//
// The headline invariant, enforced by the determinism suite: checkpoint
// → restore → continue is byte-identical (report, trace and span
// streams) to the uninterrupted run, at every shard count, chaos on or
// off.

// EnableCheckpoints arms periodic checkpointing every interval of
// virtual time, starting at the first Run. Each firing snapshots the
// world at a tick barrier: the newest encoding is retained in memory
// (LastCheckpoint) and, when dir is non-empty, also written to
// dir/ckpt-<seconds>.evck (atomically, via rename). The firing also
// refreshes the controller-process state that ctrl-crash windows
// restore from — with checkpoints off, a crashed controller restarts
// from its construction-time state instead. Call before the first Run.
func (cl *Cluster) EnableCheckpoints(dir string, every time.Duration) error {
	if every <= 0 {
		return fmt.Errorf("evolve: non-positive checkpoint interval")
	}
	if cl.started {
		return fmt.Errorf("evolve: EnableCheckpoints must be called before Run")
	}
	if cl.ckptEvery > 0 {
		return fmt.Errorf("evolve: checkpoints already enabled")
	}
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("evolve: checkpoint dir: %w", err)
		}
	}
	cl.ckptEvery, cl.ckptDir = every, dir
	return nil
}

// CheckpointStats reports how many periodic checkpoints have been
// written and their total encoded size.
func (cl *Cluster) CheckpointStats() (count int, bytes int64) {
	return cl.ckptCount, cl.ckptBytes
}

// LastCheckpoint returns a copy of the most recent periodic checkpoint
// encoding, or nil if none has been taken yet.
func (cl *Cluster) LastCheckpoint() []byte {
	if cl.lastCkpt == nil {
		return nil
	}
	return append([]byte(nil), cl.lastCkpt...)
}

// captureLoopState refreshes the controller-process blob the ctrl-crash
// restore path uses (the control plane's own checkpoint file).
func (cl *Cluster) captureLoopState() {
	blob, err := cl.loop.SaveState()
	if err != nil {
		if cl.runErr == nil {
			cl.runErr = fmt.Errorf("evolve: controller state capture: %w", err)
		}
		return
	}
	cl.lastLoopState = blob
}

// armCheckpoints schedules the periodic checkpoint timer. It is armed
// after the tick and loop timers (see start), so at shared timestamps a
// checkpoint observes the post-tick, post-decision state.
func (cl *Cluster) armCheckpoints() {
	if cl.ckptEvery <= 0 {
		return
	}
	cl.captureLoopState()
	cl.armNextCheckpoint()
}

// armNextCheckpoint self-schedules the next periodic firing. The timer
// is an After chain rather than an Every: checkpointTick re-arms BEFORE
// snapshotting, so every checkpoint carries its own successor timer and
// a restored run keeps the checkpoint cadence (an Every re-arms after
// the callback, which would leave the timer out of its own snapshot).
func (cl *Cluster) armNextCheckpoint() {
	cl.eng.TagNext("ckpt", "")
	cl.eng.After(cl.ckptEvery, cl.checkpointTick)
}

func (cl *Cluster) checkpointTick() {
	cl.armNextCheckpoint()
	cl.captureLoopState()
	var buf bytes.Buffer
	if err := cl.Checkpoint(&buf); err != nil {
		if cl.runErr == nil {
			cl.runErr = fmt.Errorf("evolve: checkpoint at %v: %w", cl.eng.Now(), err)
		}
		return
	}
	cl.lastCkpt = append(cl.lastCkpt[:0], buf.Bytes()...)
	cl.ckptCount++
	cl.ckptBytes += int64(buf.Len())
	if cl.ckptDir == "" {
		return
	}
	name := filepath.Join(cl.ckptDir, fmt.Sprintf("ckpt-%012d.evck", int64(cl.eng.Now()/time.Second)))
	tmp := name + ".tmp"
	err := os.WriteFile(tmp, buf.Bytes(), 0o644)
	if err == nil {
		err = os.Rename(tmp, name)
	}
	if err != nil && cl.runErr == nil {
		cl.runErr = fmt.Errorf("evolve: checkpoint write: %w", err)
	}
}

// armCtrlCrash schedules the kill/restore windows of any ctrl-crash
// faults in the chaos plan. The injector itself cannot arm these — they
// need the control loop and the checkpoint store — so the facade does.
func (cl *Cluster) armCtrlCrash() {
	inj := cl.c.Chaos()
	if inj == nil {
		return
	}
	crashes := inj.CtrlCrashes()
	if len(crashes) == 0 {
		return
	}
	// Without periodic checkpoints the controller restarts from its
	// construction-time state; capture it now.
	cl.captureLoopState()
	for i, f := range crashes {
		idx := strconv.Itoa(i)
		cl.eng.TagNext("ctrl-crash", idx+"/kill")
		cl.eng.At(f.From, func() {
			cl.loop.Kill()
			inj.CountCtrlCrash()
			cl.c.RecordEvent("ctrl-crash", "control-plane", "controller killed (injected fault)")
		})
		if f.To > f.From {
			cl.eng.TagNext("ctrl-crash", idx+"/restore")
			cl.eng.At(f.To, func() {
				if st := cl.lastLoopState; st != nil {
					if err := cl.loop.LoadState(st); err != nil {
						if cl.runErr == nil {
							cl.runErr = fmt.Errorf("evolve: controller restart: %w", err)
						}
						return
					}
				}
				cl.loop.Restart()
				inj.CountCtrlRestart()
				cl.c.RecordEvent("ctrl-restart", "control-plane", "controller restarted from last checkpoint")
			})
		}
	}
}

// Checkpoint writes a crash-consistent snapshot of the world to w. The
// cluster must have started (checkpoints snapshot runtime state) and be
// at a tick barrier — any point between Run calls, or inside the
// periodic checkpoint timer, qualifies.
func (cl *Cluster) Checkpoint(w io.Writer) error {
	if !cl.started {
		return fmt.Errorf("evolve: nothing to checkpoint before the first Run")
	}
	timers, err := cl.eng.PendingTimers()
	if err != nil {
		return err
	}
	coState, err := cl.c.Coordinator().State()
	if err != nil {
		return err
	}
	cw := ckpt.NewWriter(w)
	cw.Begin("evolve")
	cw.I64(cl.opts.Seed)
	cw.Str(normalisePolicy(cl.opts.Policy))
	cw.Dur(cl.eng.Now())
	cw.U64(cl.eng.Seq())
	cw.U64(cl.eng.Steps())
	cw.U64(cl.eng.RNG().Draws())
	cw.Int(len(timers))
	for _, t := range timers {
		cw.Dur(t.At)
		cw.U64(t.Seq)
		cw.Str(t.Tag.Kind)
		cw.Str(t.Tag.Arg)
	}
	cw.U64(coState.Rounds)
	cw.U64(coState.ParRounds)
	cw.U64(coState.RoundsMark)
	cw.U64(coState.ParMark)
	cw.Int(len(coState.Shards))
	for _, s := range coState.Shards {
		cw.Dur(s.Now)
		cw.U64(s.Seq)
		cw.U64(s.Nsteps)
	}
	cl.runner.CkptSave(cw)
	cl.queue.CkptSave(cw)
	cl.c.CkptSave(cw)
	cl.loop.CkptSave(cw)
	inj := cl.c.Chaos()
	cw.Bool(inj != nil)
	if inj != nil {
		inj.CkptSave(cw)
	}
	cw.Bool(cl.tracer.Enabled())
	if cl.tracer.Enabled() {
		cl.tracer.CkptSave(cw)
	}
	cw.Bytes(cl.lastLoopState)
	return cw.Close()
}

// Restore rewinds a freshly constructed Cluster to a checkpoint taken
// by an identically constructed one: same Options, same AddService /
// SetLoad / SubmitBatchJob / SubmitHPCJob calls, same EnableTracing and
// EnableCheckpoints configuration. Construction carries the code-level
// world (topology, specs, closures); the checkpoint carries the runtime
// state; Restore marries the two and re-arms every pending timer with
// its original firing order. Continue with Run — the continuation is
// byte-identical to the uninterrupted original.
func (cl *Cluster) Restore(r io.Reader) error {
	raw, err := ckpt.ReadAll(r)
	if err != nil {
		return fmt.Errorf("evolve: reading checkpoint: %w", err)
	}
	return cl.restore(raw)
}

// RestoreFile restores from a checkpoint file (see EnableCheckpoints
// and LatestCheckpoint).
func (cl *Cluster) RestoreFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return cl.restore(raw)
}

// restore decodes the snapshot in raw and keeps raw itself, not a copy,
// as LastCheckpoint: after a restore, LastCheckpoint is the snapshot
// this world came from, so a process that restores and then crashes
// again before the next periodic checkpoint still has a valid restart
// point.
func (cl *Cluster) restore(raw []byte) error {
	if cl.started {
		return fmt.Errorf("evolve: Restore needs a freshly constructed cluster")
	}
	cr, err := ckpt.NewBytesReader(raw)
	if err != nil {
		return err
	}
	// The checksum was verified up front: a corrupt snapshot fails here,
	// before the fresh world is touched.
	if err := cr.Err(); err != nil {
		return err
	}
	// Arm the fresh world's own timers first: RestoreTimers re-attaches
	// checkpoint timers to them by tag.
	cl.start()
	cr.Begin("evolve")
	if seed := cr.I64(); cr.Err() == nil && seed != cl.opts.Seed {
		return fmt.Errorf("evolve: checkpoint has seed %d, this cluster %d", seed, cl.opts.Seed)
	}
	if pol := cr.Str(); cr.Err() == nil && pol != normalisePolicy(cl.opts.Policy) {
		return fmt.Errorf("evolve: checkpoint has policy %q, this cluster %q", pol, normalisePolicy(cl.opts.Policy))
	}
	now := cr.Dur()
	seq := cr.U64()
	nsteps := cr.U64()
	draws := cr.U64()
	nt := cr.Count(4 * 8)
	if cr.Err() != nil {
		return cr.Err()
	}
	timers := make([]sim.PendingTimer, nt)
	for i := range timers {
		timers[i] = sim.PendingTimer{
			At:  cr.Dur(),
			Seq: cr.U64(),
			Tag: sim.TimerTag{Kind: cr.Str(), Arg: cr.Str()},
		}
	}
	co := cl.c.Coordinator()
	// Version 1 wrote the coordinator section behind a presence flag,
	// false for 1-shard worlds: their shard clock restarts at the
	// checkpoint's instant with fresh counters.
	coState := sim.CoordinatorState{Shards: []sim.ShardClock{{Now: now}}}
	if cr.Version() >= 2 || cr.Bool() {
		coState.Rounds = cr.U64()
		coState.ParRounds = cr.U64()
		coState.RoundsMark = cr.U64()
		coState.ParMark = cr.U64()
		ns := cr.Count(3 * 8)
		if cr.Err() != nil {
			return cr.Err()
		}
		coState.Shards = make([]sim.ShardClock, ns)
		for i := range coState.Shards {
			coState.Shards[i] = sim.ShardClock{Now: cr.Dur(), Seq: cr.U64(), Nsteps: cr.U64()}
		}
	}
	// Substrate order mirrors Checkpoint: batch and HPC load before the
	// cluster, whose task pods reattach their completion callbacks
	// through the restored runner and queue state.
	if err := cl.runner.CkptLoad(cr); err != nil {
		return err
	}
	if err := cl.queue.CkptLoad(cr); err != nil {
		return err
	}
	reattach := func(p *cluster.PodObject) (func(string, bool), error) {
		if fn, err := cl.runner.ReattachTask(p.Name); err == nil {
			return fn, nil
		}
		return cl.queue.ReattachRank(p.Name, p.Task.Job)
	}
	if err := cl.c.CkptLoad(cr, reattach); err != nil {
		return err
	}
	if err := cl.loop.CkptLoad(cr); err != nil {
		return err
	}
	inj := cl.c.Chaos()
	if injPresent := cr.Bool(); injPresent != (inj != nil) {
		if cr.Err() != nil {
			return cr.Err()
		}
		return fmt.Errorf("evolve: checkpoint chaos plan does not match this cluster's Chaos option")
	}
	if inj != nil {
		if err := inj.CkptLoad(cr); err != nil {
			return err
		}
	}
	if trPresent := cr.Bool(); trPresent != cl.tracer.Enabled() {
		if cr.Err() != nil {
			return cr.Err()
		}
		return fmt.Errorf("evolve: checkpoint tracing does not match (call EnableTracing before Restore)")
	}
	if cl.tracer.Enabled() {
		if err := cl.tracer.CkptLoad(cr); err != nil {
			return err
		}
	}
	if blob := cr.Bytes(); len(blob) > 0 {
		cl.lastLoopState = blob
	}
	if err := cr.Close(); err != nil {
		return err
	}

	rebuild := func(tag sim.TimerTag) (func(), error) {
		switch tag.Kind {
		case "retry":
			return cl.loop.RebuildTimer(tag.Kind, tag.Arg)
		case "task", "act-delay":
			return cl.c.RebuildTimer(tag.Kind, tag.Arg)
		}
		return nil, fmt.Errorf("evolve: no rebuilder for timer %s/%s", tag.Kind, tag.Arg)
	}
	if err := cl.eng.RestoreTimers(now, seq, nsteps, timers, rebuild); err != nil {
		return err
	}
	if err := cl.eng.RNG().Burn(draws); err != nil {
		return err
	}
	if err := co.RestoreState(coState); err != nil {
		return err
	}
	cl.lastCkpt = raw
	return cl.runErr
}

// LatestCheckpoint returns the path of the newest checkpoint file in
// dir, as written by EnableCheckpoints.
func LatestCheckpoint(dir string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "ckpt-*.evck"))
	if err != nil {
		return "", err
	}
	if len(matches) == 0 {
		return "", fmt.Errorf("evolve: no checkpoints in %s", dir)
	}
	sort.Strings(matches)
	return matches[len(matches)-1], nil
}

// normalisePolicy maps the Options.Policy aliases onto canonical names
// so checkpoint compatibility checks compare like with like.
func normalisePolicy(p string) string {
	p = strings.ToLower(p)
	if p == "" {
		return "evolve"
	}
	return p
}
