// Package dist is the distributed lab: it lets a pool of stms-serve
// worker processes execute run-matrix cells on behalf of a
// coordinator, over a content-addressed store of materialized trace
// tapes.
//
// The package decomposes into four pieces:
//
//   - the wire protocol (this file): versioned JSON structures for
//     cell jobs, streamed progress events, and results. A job is the
//     serialized identity of one lab cell — workload spec or scenario,
//     prefetcher variant, system config, driver mode — and cells are
//     pure functions of that identity, so remote execution is
//     memoization over the network: any worker, any time, same bits.
//   - Store: a two-tier (memory LRU → on-disk STMSTAPE directory)
//     content-addressed tape store, singleflight-guarded, that every
//     worker serves its jobs' tapes from.
//   - Server: the worker daemon's HTTP API — POST /jobs streams
//     progress and the final result as JSON lines, GET/PUT
//     /tapes/{key} move tapes between workers so each unique tape is
//     built once fleet-wide, GET /healthz advertises capacity.
//   - Client: the coordinator's view of one worker, separating
//     transport failures (retry on another worker) from job failures
//     (deterministic; retrying elsewhere would fail identically).
//
// Every simulation a worker runs goes through the same sim.Run call
// the in-process lab uses, so a matrix executed across
// workers is bit-identical to the same plan run locally.
package dist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
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

// scenario parses the job's scenario document, if any.
func (j *Job) scenario() (*trace.Scenario, error) {
	if len(j.Scenario) == 0 {
		return nil, nil
	}
	s, err := trace.ParseScenario(bytes.NewReader(j.Scenario))
	if err != nil {
		return nil, err
	}
	return &s, nil
}

// CkptKey returns the content address of the job's checkpoint: the hex
// digest of the full job identity — trace identity (TapeKey) plus mode
// and the complete prefetcher spec. Unlike tapes, a checkpoint is only
// meaningful to the exact job that wrote it (the serialized state
// embeds the variant's tables and in-flight operations), so the
// prefetcher spec is part of the address. One key names one job's
// "latest checkpoint": each cadence overwrites the previous container.
func (j *Job) CkptKey() (string, error) {
	tk, err := j.TapeKey()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256([]byte(fmt.Sprintf("ckpt|tape=%s|mode=%s|pref=%s", tk, j.Mode, prefString(j.Pref))))
	return hex.EncodeToString(sum[:]), nil
}

// prefString renders the complete prefetcher spec for CkptKey,
// dereferencing the optional config pointers so two specs differing
// only behind a pointer hash differently.
func prefString(ps sim.PrefSpec) string {
	scfg, ecfg := "", ""
	if ps.STMSCfg != nil {
		scfg = fmt.Sprintf("%+v", *ps.STMSCfg)
	}
	if ps.Engine != nil {
		ecfg = fmt.Sprintf("%+v", *ps.Engine)
	}
	return fmt.Sprintf("k=%d|d=%d|h=%d|i=%d|p=%g|s=%s|e=%s",
		ps.Kind, ps.MaxDepth, ps.HistoryEntries, ps.IndexEntries, ps.SampleProb, scfg, ecfg)
}

// TapeKey returns the content address of the job's trace identity: the
// hex digest of (scaled spec or scenario, seed, cores, per-core record
// budget) — everything that determines the materialized tape, and
// nothing that doesn't (the prefetcher variant, for one, so every
// variant column of a matrix row shares a key). Coordinator and worker
// compute it independently and must agree; it names tapes in every
// store tier and routes cells to workers by affinity.
func (j *Job) TapeKey() (string, error) {
	scn, err := j.scenario()
	if err != nil {
		return "", err
	}
	key, _ := TapeIdentity(j.Config, j.Spec, scn)
	return key, nil
}

// TapeIdentity returns the content address of a run's trace tape and
// the function that materializes it: the scenario when scn is non-nil,
// else the spec, scaled by cfg.Scale, at cfg's seed, core count and
// warm + measure budget. Lab sessions, workers and Job.TapeKey all
// derive tape identities here.
func TapeIdentity(cfg sim.Config, spec *trace.Spec, scn *trace.Scenario) (string, func() *trace.Tape) {
	seed, cores, perCore := cfg.Seed, cfg.Cores, cfg.WarmRecords+cfg.MeasureRecords
	if scn != nil {
		scaled := scn.Scaled(cfg.Scale)
		return TapeKey(trace.Spec{}, scaled.Key(), seed, cores, perCore), func() *trace.Tape {
			return trace.NewScenarioTape(scaled, seed, cores, perCore)
		}
	}
	scaled := spec.Scaled(cfg.Scale)
	return TapeKey(scaled, "", seed, cores, perCore), func() *trace.Tape {
		return trace.NewTape(scaled, seed, cores, perCore)
	}
}

// TapeKey computes the content address of a trace identity. Exactly
// one of spec (already scaled) and scenarioKey (a scaled
// Scenario.Key) is meaningful; the other is its zero value.
func TapeKey(spec trace.Spec, scenarioKey string, seed uint64, cores int, perCore uint64) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("spec=%+v|scn=%s|seed=%d|cores=%d|per=%d",
		spec, scenarioKey, seed, cores, perCore)))
	return hex.EncodeToString(sum[:])
}

// tapeKeyOf recomputes the content address of a materialized tape from
// the identity it carries — the receiving tier of every tape transfer
// (disk load, PUT /tapes) verifies the address instead of trusting the
// name it arrived under.
func tapeKeyOf(t *trace.Tape) string {
	scnKey := ""
	spec := trace.Spec{}
	if scn := t.Scenario(); scn != nil {
		scnKey = scn.Key()
	} else {
		spec = t.Spec()
	}
	return TapeKey(spec, scnKey, t.Seed(), t.Cores(), t.PerCore())
}

// TapeSource records which tier satisfied a job's tape: the worker's
// memory cache, its disk tier, a peer worker, a fresh build, or "live"
// when the worker runs without a store and generates records in place.
type TapeSource string

// Tape sources, in lookup order.
const (
	TapeFromMemory TapeSource = "memory"
	TapeFromDisk   TapeSource = "disk"
	TapeFromPeer   TapeSource = "peer"
	TapeBuilt      TapeSource = "built"
	TapeLive       TapeSource = "live"
)

// Result is a completed job: the full simulation Results (which
// round-trip JSON losslessly, so the coordinator's matrix is
// bit-identical to an in-process run) plus execution metadata.
type Result struct {
	Version    int         `json:"stms_result"`
	Res        sim.Results `json:"results"`
	TapeSource TapeSource  `json:"tape_source"`
	Worker     string      `json:"worker,omitempty"`
	WallMS     float64     `json:"wall_ms"`
	// Checkpoint accounting (additive in result version 1; absent on
	// workers without checkpointing). Resumed reports that the worker
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

// Health is the worker's GET /healthz document. Resumable and Ckpts
// are additive fields (version stays 1 so old coordinators keep
// working): a resumable worker checkpoints long jobs to its store and
// serves them over GET/PUT /ckpts/{key}.
type Health struct {
	Version   int    `json:"stms_worker"`
	Name      string `json:"name"`
	Cores     int    `json:"cores"`
	MaxJobs   int    `json:"max_jobs"`
	InFlight  int    `json:"in_flight"`
	Tapes     int    `json:"tapes"`               // tapes resident in the memory tier
	Resumable bool   `json:"resumable,omitempty"` // worker checkpoints jobs and serves /ckpts
	Ckpts     int    `json:"ckpts,omitempty"`     // checkpoints resident in the store
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
	for err != nil {
		if _, ok := err.(*TransportError); ok {
			return true
		}
		u, ok := err.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		err = u.Unwrap()
	}
	return false
}
