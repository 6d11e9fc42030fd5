// Package dist is the distributed lab: it lets a pool of stms-serve
// worker processes execute run-matrix cells on behalf of a
// coordinator.
//
// The package decomposes into four pieces:
//
//   - the wire protocol (this file): versioned JSON structures for
//     cell jobs, streamed progress events, and results. A job is the
//     serialized identity of one lab cell — workload spec or scenario,
//     prefetcher variant, system config, driver mode — and cells are
//     pure functions of that identity, so remote execution is
//     memoization over the network: any worker, any time, same bits.
//   - Store: a worker's checkpoint store (memory, plus an optional
//     on-disk STMSCKPT directory), content-addressed by job identity.
//   - Server: the worker daemon's HTTP API — POST /jobs streams
//     progress and the final result as JSON lines, GET/PUT
//     /ckpts/{key} move checkpoints between workers and the
//     coordinator so a lost attempt costs only the tail of its cell,
//     GET /healthz advertises capacity.
//   - Client: the coordinator's view of one worker, separating
//     transport failures (retry on another worker) from job failures
//     (deterministic; retrying elsewhere would fail identically).
//
// Workers generate every job's trace live, through the same sim.Run
// call the in-process lab uses, so a matrix executed across workers
// is bit-identical to the same plan run locally.
package dist

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"stms/internal/sim"
	"stms/internal/trace"
)

// Protocol format versions, stamped into and validated out of every
// top-level JSON document, in the same style as scenario files
// ({"stms_scenario":1,...}) and STMSTAPE headers.
const (
	JobFormatVersion    = 1
	EventFormatVersion  = 1
	ResultFormatVersion = 1
	HealthFormatVersion = 1
)

// Job is one cell of work: everything that determines a simulation's
// result, in versioned JSON. Exactly one of Spec and Scenario is set;
// Spec is full-scale (Config.Scale applies at run, exactly as in an
// in-process lab cell) and Scenario holds the scenario's own versioned
// JSON document.
type Job struct {
	Version  int             `json:"stms_job"`
	Mode     string          `json:"mode"` // "timed" | "functional"
	Workload string          `json:"workload"`
	Variant  string          `json:"variant"`
	Spec     *trace.Spec     `json:"spec,omitempty"`
	Scenario json.RawMessage `json:"scenario,omitempty"`
	Config   sim.Config      `json:"config"`
	Pref     sim.PrefSpec    `json:"pref"`
}

// Validate reports structural protocol errors (the simulation-level
// validation of config and spec happens when the job executes).
func (j *Job) Validate() error {
	switch {
	case j.Version != JobFormatVersion:
		return fmt.Errorf("dist: job format version %d, want %d", j.Version, JobFormatVersion)
	case j.Mode != "timed" && j.Mode != "functional":
		return fmt.Errorf("dist: job mode %q is neither \"timed\" nor \"functional\"", j.Mode)
	case j.Spec == nil && len(j.Scenario) == 0:
		return fmt.Errorf("dist: job carries neither a spec nor a scenario")
	case j.Spec != nil && len(j.Scenario) > 0:
		return fmt.Errorf("dist: job carries both a spec and a scenario")
	}
	return nil
}

// identity returns the job's run identity. Its Key addresses the job's
// checkpoints: a checkpoint is only meaningful to the exact job that
// wrote it, and one key names one job's latest checkpoint. The
// coordinator derives the same identity from the cell behind the job.
func (j *Job) identity() (sim.Identity, error) {
	in, mode, err := j.run()
	if err != nil {
		return sim.Identity{}, err
	}
	return sim.NewIdentity(mode, j.Config, in, j.Pref, sim.Sampling{}), nil
}

// run returns the job's live trace input and driver mode.
func (j *Job) run() (sim.Input, sim.Mode, error) {
	mode := sim.Timed
	if j.Mode == sim.Functional.String() {
		mode = sim.Functional
	}
	if len(j.Scenario) == 0 {
		return sim.FromSpec(*j.Spec), mode, nil
	}
	scn, err := trace.ParseScenario(bytes.NewReader(j.Scenario))
	return sim.FromScenario(scn), mode, err
}

// Result is a completed job: the full simulation Results (which
// round-trip JSON losslessly, so the coordinator's matrix is
// bit-identical to an in-process run) plus execution metadata.
type Result struct {
	Version int         `json:"stms_result"`
	Res     sim.Results `json:"results"`
	Worker  string      `json:"worker,omitempty"`
	WallMS  float64     `json:"wall_ms"`
	// Checkpoint accounting (additive in result version 1; absent when
	// the job neither resumed nor checkpointed). Resumed reports that the worker
	// restored the run from a checkpoint instead of starting cold;
	// CkptWrites/CkptBytes count the checkpoints the run itself wrote.
	Resumed    bool   `json:"resumed,omitempty"`
	CkptWrites uint64 `json:"ckpt_writes,omitempty"`
	CkptBytes  uint64 `json:"ckpt_bytes,omitempty"`
}

// Event is one line of a job's progress stream. Kind is "queued" (a
// heartbeat while the job waits for an execution slot), "started",
// "progress" (Done/Total records processed), "done" (Result set),
// "failed" (Error set), or "checkpointed" (the worker is shutting down
// gracefully and flushed the job's final checkpoint to its store; the
// coordinator should fetch it and retry warm on another worker).
// Consumers ignore kinds they don't know, so new heartbeat kinds are
// not a protocol break; any event resets the client's stall detector.
type Event struct {
	Version int     `json:"stms_event"`
	Kind    string  `json:"event"`
	JobID   string  `json:"job_id,omitempty"`
	Done    uint64  `json:"done,omitempty"`
	Total   uint64  `json:"total,omitempty"`
	Result  *Result `json:"result,omitempty"`
	Error   string  `json:"error,omitempty"`
}

// Health is the worker's GET /healthz document. Every worker
// checkpoints jobs to its store and serves them over GET/PUT
// /ckpts/{key}; Ckpts counts the checkpoints it holds.
type Health struct {
	Version  int    `json:"stms_worker"`
	Name     string `json:"name"`
	Cores    int    `json:"cores"`
	MaxJobs  int    `json:"max_jobs"`
	InFlight int    `json:"in_flight"`
	Ckpts    int    `json:"ckpts,omitempty"` // checkpoints resident in the store
}

// ErrWorkerCheckpointed marks a job stream that ended with a
// "checkpointed" terminal event: the worker shut down gracefully after
// flushing the job's final checkpoint. It is wrapped in a
// TransportError — retrying on another worker helps, and with the
// checkpoint exchanged first the retry resumes warm instead of cold.
var ErrWorkerCheckpointed = errors.New("dist: worker checkpointed the job and shut down")

// TransportError marks failures of the transport — connection refused,
// unexpected HTTP status, a response stream cut mid-job — as opposed
// to failures of the job itself. Transport failures are retried on
// another worker; job failures are deterministic and are not.
type TransportError struct{ Err error }

// Error implements error.
func (e *TransportError) Error() string { return e.Err.Error() }

// Unwrap exposes the underlying failure.
func (e *TransportError) Unwrap() error { return e.Err }

// IsTransport reports whether err (anywhere in its chain) is a
// transport failure, i.e. whether retrying on another worker can help.
func IsTransport(err error) bool {
	var te *TransportError
	return errors.As(err, &te)
}
