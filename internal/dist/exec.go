package dist

import (
	"context"
	"errors"

	"stms/internal/sim"
	"stms/internal/trace"
)

// ExecOptions configures checkpointing for one job execution. The zero
// value (or a nil pointer) runs the job plain, exactly as before
// checkpoints existed.
type ExecOptions struct {
	// Resume is a sealed STMSCKPT container to restore the run from.
	// It is validated against the job's full identity (mode, config,
	// complete prefetcher spec, trace identity) before it is trusted;
	// a mismatched or corrupt container is discarded and the job runs
	// from scratch — a bad checkpoint can cost time, never correctness.
	Resume []byte
	// Every is the checkpoint cadence in trace records across all
	// cores; 0 writes no periodic checkpoints.
	Every uint64
	// Sink receives each sealed checkpoint container. Required for
	// checkpointing: without it Every and Stop are ignored.
	Sink func(data []byte) error
	// Stop, when closed, requests a final checkpoint followed by a
	// halt with sim.ErrCheckpointed — the graceful-shutdown path.
	Stop <-chan struct{}
}

// active reports whether this execution should request checkpoints.
// Non-checkpointable variants (comparators, index-organization
// ablations) run plain rather than failing: a worker with a checkpoint
// cadence must still execute every job the protocol allows.
func (o *ExecOptions) active(job *Job) bool {
	if o == nil || o.Sink == nil || (o.Every == 0 && o.Stop == nil) {
		return false
	}
	return sim.CheckpointablePref(job.Pref)
}

// runOptions assembles the sim run options for this execution.
func (o *ExecOptions) runOptions(job *Job) []sim.RunOption {
	if !o.active(job) {
		return nil
	}
	opts := []sim.RunOption{sim.WithCheckpointFunc(o.Every, o.Sink)}
	if o.Stop != nil {
		opts = append(opts, sim.WithCheckpointSignal(o.Stop))
	}
	return opts
}

// ExecuteJob runs one cell job to completion, serving its record
// stream from the store when one is given (fetch, usually a peer
// lookup, feeds the store's miss path). The execution mirrors the
// in-process lab's cell path exactly — same validation order, same
// tape identities (TapeIdentity), same sim.Run call — which is what makes a
// remotely executed matrix bit-identical to a local run.
//
// exec (nil for a plain run) threads checkpointing through: a
// validated ExecOptions.Resume warm-starts the run (resumed reports
// whether it actually did — an invalid checkpoint is discarded, never
// trusted), Every/Sink stream periodic checkpoints out, and Stop
// requests a final checkpoint + sim.ErrCheckpointed for graceful
// shutdown. Because checkpoints are pure observation, results are
// bit-identical with or without them, resumed or cold.
func ExecuteJob(ctx context.Context, job *Job, store *Store,
	fetch func(context.Context, string) (*trace.Tape, error), progress sim.Progress,
	exec *ExecOptions) (sim.Results, TapeSource, bool, error) {
	if err := job.Validate(); err != nil {
		return sim.Results{}, TapeLive, false, err
	}
	scn, err := job.scenario()
	if err != nil {
		return sim.Results{}, TapeLive, false, err
	}
	cfg := job.Config

	var src TapeSource = TapeLive
	var in sim.Input
	switch {
	case store != nil:
		// Validate before touching the store — sim.Run validates again,
		// but only after the tape exists, and a job with a broken config
		// must not cost a tape build.
		if err := cfg.Validate(); err != nil {
			return sim.Results{}, TapeLive, false, err
		}
		key, build := TapeIdentity(cfg, job.Spec, scn)
		var fetchKey func(context.Context) (*trace.Tape, error)
		if fetch != nil {
			fetchKey = func(ctx context.Context) (*trace.Tape, error) { return fetch(ctx, key) }
		}
		var tape *trace.Tape
		tape, src, err = store.GetOrBuild(ctx, key, fetchKey, build)
		if err != nil {
			return sim.Results{}, src, false, err
		}
		in = sim.FromTape(tape)
	case scn != nil:
		in = sim.FromScenario(*scn)
	default:
		in = sim.FromSpec(*job.Spec)
	}

	mode := sim.Timed
	if job.Mode == sim.Functional.String() {
		mode = sim.Functional
	}
	opts := append(exec.runOptions(job), sim.WithMode(mode), sim.WithProgress(progress))
	run := func(opts ...sim.RunOption) (sim.Results, error) {
		rs, err := sim.Run(ctx, cfg, in, []sim.PrefSpec{job.Pref}, opts...)
		if err != nil {
			return sim.Results{}, err
		}
		return rs[0], nil
	}
	if exec != nil && len(exec.Resume) > 0 && sim.CheckpointablePref(job.Pref) {
		// sim.Run checks the container's full identity — mode, config,
		// the complete prefetcher spec and the trace — before it reports
		// progress or writes a checkpoint.
		res, err := run(append(opts[:len(opts):len(opts)], sim.WithResume(exec.Resume))...)
		switch {
		case err == nil:
			return res, src, true, nil
		case errors.Is(err, sim.ErrCheckpointed) || ctx.Err() != nil:
			return res, src, true, err
		}
		// The container belongs to another run or would not restore:
		// discard it and fall through to a cold run.
	}
	res, err := run(opts...)
	return res, src, false, err
}
