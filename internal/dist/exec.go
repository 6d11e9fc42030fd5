package dist

import (
	"context"
	"errors"

	"stms/internal/sim"
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

// ExecuteJob runs one cell job to completion, generating its trace
// live. The execution mirrors the in-process lab's cell path exactly —
// same validation order, same sim.Run call over the same spec or
// scenario — which is what makes a remotely executed matrix
// bit-identical to a local run.
//
// exec (nil for a plain run) threads checkpointing through: a
// validated ExecOptions.Resume warm-starts the run (resumed reports
// whether it actually did — an invalid checkpoint is discarded, never
// trusted), Every/Sink stream periodic checkpoints out, and Stop
// requests a final checkpoint + sim.ErrCheckpointed for graceful
// shutdown. Because checkpoints are pure observation, results are
// bit-identical with or without them, resumed or cold.
func ExecuteJob(ctx context.Context, job *Job, progress sim.Progress, exec *ExecOptions) (sim.Results, bool, error) {
	if err := job.Validate(); err != nil {
		return sim.Results{}, false, err
	}
	in, mode, err := job.run()
	if err != nil {
		return sim.Results{}, false, err
	}
	opts := append(exec.runOptions(job), sim.WithMode(mode), sim.WithProgress(progress))
	run := func(opts ...sim.RunOption) (sim.Results, error) {
		rs, err := sim.Run(ctx, job.Config, in, []sim.PrefSpec{job.Pref}, opts...)
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
			return res, true, nil
		case errors.Is(err, sim.ErrCheckpointed) || ctx.Err() != nil:
			return res, true, err
		}
		// The container belongs to another run or would not restore:
		// discard it and fall through to a cold run.
	}
	res, err := run(opts...)
	return res, false, err
}
