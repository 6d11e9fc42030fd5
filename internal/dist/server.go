package dist

// The worker daemon's HTTP API (stms-serve -worker):
//
//	GET  /healthz      → Health document (capacity, in-flight jobs)
//	POST /jobs         → execute a Job; the response is a stream of
//	                     Event JSON values: queued heartbeats while
//	                     waiting for a slot, started, throttled
//	                     progress, then done (with the Result) or
//	                     failed. The request context is the job's
//	                     context: a coordinator that dies mid-run
//	                     cancels its jobs.
//	GET  /jobs/{id}    → status of a job seen by this worker
//	GET  /tapes/{key}  → STMSTAPE bytes of a resident tape
//	PUT  /tapes/{key}  → admit a tape (verified against its address)
//	GET  /ckpts/{key}  → sealed STMSCKPT bytes of a job's latest
//	                     checkpoint (content-addressed by Job.CkptKey)
//	PUT  /ckpts/{key}  → admit a checkpoint (verified container; 400
//	                     on corruption)
//
// Unknown job ids and tape/checkpoint keys answer 404 with a
// nearest-match suggestion, the same way trace.ByName treats workload
// typos.

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"stms/internal/editdist"
	"stms/internal/sim"
	"stms/internal/trace"
)

// ServerConfig configures a worker.
type ServerConfig struct {
	// Name identifies the worker in results and health documents
	// (default: "worker").
	Name string
	// Store serves and caches tapes; nil runs every job live.
	Store *Store
	// Peers are base URLs of sibling workers asked for a tape before
	// building it.
	Peers []string
	// MaxJobs bounds concurrently executing jobs (default:
	// runtime.NumCPU()); excess POST /jobs block until a slot frees.
	MaxJobs int
	// Token, when non-empty, requires every request except GET /healthz
	// to carry "Authorization: Bearer <Token>"; everything else answers
	// 401. The worker presents the same token to its peers, so one
	// shared secret protects a whole fleet.
	Token string
	// CheckpointEvery, when > 0 and a Store is configured, checkpoints
	// every running checkpointable job to the store each time this many
	// trace records pass, and the job resumes from the freshest valid
	// checkpoint found locally or on a peer. Regardless of cadence, a
	// Store-backed worker flushes a final checkpoint on Drain.
	CheckpointEvery uint64
}

// Server is the worker daemon: an http.Handler executing cell jobs
// over a content-addressed tape store.
type Server struct {
	cfg   ServerConfig
	peers []*Client
	sem   chan struct{}

	drain     chan struct{}
	drainOnce sync.Once

	mu       sync.Mutex
	seq      int
	jobs     map[string]*jobStatus
	inflight int
}

// jobStatus is the GET /jobs/{id} view of one job.
type jobStatus struct {
	ID       string  `json:"job_id"`
	Workload string  `json:"workload"`
	Variant  string  `json:"variant"`
	State    string  `json:"state"` // running | done | failed | aborted | checkpointed
	Done     uint64  `json:"done"`
	Total    uint64  `json:"total"`
	Error    string  `json:"error,omitempty"`
	WallMS   float64 `json:"wall_ms,omitempty"`
}

// NewServer constructs a worker over its store and peer list.
func NewServer(cfg ServerConfig) *Server {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.MaxJobs <= 0 {
		cfg.MaxJobs = runtime.NumCPU()
	}
	s := &Server{
		cfg:   cfg,
		sem:   make(chan struct{}, cfg.MaxJobs),
		drain: make(chan struct{}),
		jobs:  make(map[string]*jobStatus),
	}
	for _, p := range cfg.Peers {
		var opts []ClientOption
		if cfg.Token != "" {
			opts = append(opts, WithAuth(cfg.Token))
		}
		s.peers = append(s.peers, NewClient(p, opts...))
	}
	return s
}

// Store returns the server's tape store (nil when running live).
func (s *Server) Store() *Store { return s.cfg.Store }

// Drain begins graceful shutdown: every in-flight checkpointable job
// writes a final checkpoint to the store and ends its stream with a
// terminal "checkpointed" event, so the coordinator retries warm
// instead of cold. Call before closing the listener; safe to call more
// than once. Jobs that cannot checkpoint (no store, non-serializable
// variant) are unaffected and run to completion or get cut by the
// listener close.
func (s *Server) Drain() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// resumable reports whether this worker checkpoints jobs.
func (s *Server) resumable() bool { return s.cfg.Store != nil }

// authorized enforces the shared-secret bearer token on everything but
// the health endpoint (load balancers and half-open breaker probes may
// check liveness without credentials; the health document carries no
// job or tape content).
func (s *Server) authorized(w http.ResponseWriter, r *http.Request) bool {
	if s.cfg.Token == "" || r.URL.Path == "/healthz" {
		return true
	}
	want := "Bearer " + s.cfg.Token
	got := r.Header.Get("Authorization")
	if subtle.ConstantTimeCompare([]byte(got), []byte(want)) == 1 {
		return true
	}
	w.Header().Set("WWW-Authenticate", `Bearer realm="stms-serve"`)
	http.Error(w, "dist: this worker requires a bearer token (-token)", http.StatusUnauthorized)
	return false
}

// ServeHTTP routes the worker API.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !s.authorized(w, r) {
		return
	}
	switch {
	case r.URL.Path == "/healthz" && r.Method == http.MethodGet:
		s.handleHealth(w)
	case r.URL.Path == "/jobs" && r.Method == http.MethodPost:
		s.handleRunJob(w, r)
	case strings.HasPrefix(r.URL.Path, "/jobs/") && r.Method == http.MethodGet:
		s.handleJobStatus(w, strings.TrimPrefix(r.URL.Path, "/jobs/"))
	case strings.HasPrefix(r.URL.Path, "/tapes/"):
		s.handleTape(w, r, strings.TrimPrefix(r.URL.Path, "/tapes/"))
	case strings.HasPrefix(r.URL.Path, "/ckpts/"):
		s.handleCkpt(w, r, strings.TrimPrefix(r.URL.Path, "/ckpts/"))
	default:
		http.Error(w, fmt.Sprintf("dist: no route %s %s", r.Method, r.URL.Path), http.StatusNotFound)
	}
}

func (s *Server) handleHealth(w http.ResponseWriter) {
	s.mu.Lock()
	h := Health{
		Version:  HealthFormatVersion,
		Name:     s.cfg.Name,
		Cores:    runtime.NumCPU(),
		MaxJobs:  s.cfg.MaxJobs,
		InFlight: s.inflight,
	}
	s.mu.Unlock()
	if s.cfg.Store != nil {
		h.Tapes = s.cfg.Store.Len()
		h.Resumable = true
		h.Ckpts = s.cfg.Store.CkptCount()
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(h)
}

// handleRunJob executes a job, streaming Event JSON values as they
// happen. The stream itself is the protocol: a "done" or "failed"
// event terminates it; a connection cut before that is a transport
// failure the coordinator retries elsewhere.
func (s *Server) handleRunJob(w http.ResponseWriter, r *http.Request) {
	var job Job
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(&job); err != nil {
		http.Error(w, fmt.Sprintf("dist: decoding job: %v", err), http.StatusBadRequest)
		return
	}
	if err := job.Validate(); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	var jobID string
	emit := func(ev Event) {
		ev.Version = EventFormatVersion
		ev.JobID = jobID
		enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}

	// Bound in-flight executions; queue on the semaphore, but give up
	// when the caller does — and keep the stream audibly alive while
	// queued, so a coordinator's stall detector can tell a busy worker
	// from a dead one.
	select {
	case s.sem <- struct{}{}:
	case <-r.Context().Done():
		return
	default:
		emit(Event{Kind: "queued"})
		beat := time.NewTicker(time.Second)
		defer beat.Stop()
	queue:
		for {
			select {
			case s.sem <- struct{}{}:
				break queue
			case <-beat.C:
				emit(Event{Kind: "queued"})
			case <-r.Context().Done():
				return
			}
		}
	}
	defer func() { <-s.sem }()

	st := s.track(&job)
	defer s.untrack(st)
	jobID = st.ID
	emit(Event{Kind: "started"})

	// Throttled progress: at most ~4 events/second on the wire, every
	// callback into the status table.
	var lastSent time.Time
	progress := func(done, total uint64) {
		s.mu.Lock()
		st.Done, st.Total = done, total
		s.mu.Unlock()
		if time.Since(lastSent) < 250*time.Millisecond {
			return
		}
		lastSent = time.Now()
		emit(Event{Kind: "progress", Done: done, Total: total})
	}

	// Checkpointing: a store-backed worker checkpoints the job to its
	// store under the job's content address (Job.CkptKey) and resumes
	// from the freshest valid checkpoint it can find — its own store
	// (a previous attempt that died here, or one the coordinator
	// pushed) or a peer's. Checkpoints survive job completion: "latest
	// checkpoint per job identity" is the store's contract, and a
	// coordinator whose stream was cut may still want it.
	var exec *ExecOptions
	var ckptWrites, ckptBytes uint64
	if s.resumable() {
		if key, kerr := job.CkptKey(); kerr == nil {
			exec = &ExecOptions{
				Every: s.cfg.CheckpointEvery,
				Stop:  s.drain,
				Sink: func(data []byte) error {
					ckptWrites++
					ckptBytes += uint64(len(data))
					return s.cfg.Store.PutCkpt(key, data)
				},
			}
			if sim.CheckpointablePref(job.Pref) {
				exec.Resume = s.lookupCkpt(r.Context(), key)
			}
		}
	}

	start := time.Now()
	res, src, resumed, err := s.execute(r.Context(), &job, progress, exec)
	wallMS := float64(time.Since(start).Microseconds()) / 1000

	s.mu.Lock()
	switch {
	case errors.Is(err, sim.ErrCheckpointed):
		st.State, st.WallMS = "checkpointed", wallMS
	case err != nil:
		st.State, st.Error = "failed", err.Error()
	default:
		st.State, st.WallMS = "done", wallMS
	}
	s.mu.Unlock()

	if errors.Is(err, sim.ErrCheckpointed) {
		emit(Event{Kind: "checkpointed"})
		return
	}
	if err != nil {
		emit(Event{Kind: "failed", Error: err.Error()})
		return
	}
	emit(Event{Kind: "done", Result: &Result{
		Version:    ResultFormatVersion,
		Res:        res,
		TapeSource: src,
		Worker:     s.cfg.Name,
		WallMS:     wallMS,
		Resumed:    resumed,
		CkptWrites: ckptWrites,
		CkptBytes:  ckptBytes,
	}})
}

// execute contains panics to the failing job, like the lab's cell
// runner does — a worker must survive a malformed cell.
func (s *Server) execute(ctx context.Context, job *Job, progress sim.Progress, exec *ExecOptions) (res sim.Results, src TapeSource, resumed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("dist: job %s/%s panicked: %v", job.Workload, job.Variant, r)
		}
	}()
	return ExecuteJob(ctx, job, s.cfg.Store, s.fetchFromPeers, progress, exec)
}

// lookupCkpt finds the freshest valid checkpoint for a job key: this
// worker's store first, then every peer, keeping whichever had
// progressed furthest. Containers that fail to verify or describe are
// ignored — a checkpoint is never trusted on arrival.
func (s *Server) lookupCkpt(ctx context.Context, key string) []byte {
	var best []byte
	var bestRecs uint64
	consider := func(data []byte) {
		if d, err := sim.Peek(data); err == nil && (best == nil || d.Records > bestRecs) {
			best, bestRecs = data, d.Records
		}
	}
	if data, ok := s.cfg.Store.GetCkpt(key); ok {
		consider(data)
	}
	for _, p := range s.peers {
		if data, err := p.FetchCkpt(ctx, key); err == nil {
			consider(data)
		}
	}
	return best
}

// fetchFromPeers asks each sibling worker for a tape; the first one
// holding it wins. Used as the store's miss hook so a tape built
// anywhere in the fleet is fetched, not rebuilt.
func (s *Server) fetchFromPeers(ctx context.Context, key string) (*trace.Tape, error) {
	var lastErr error
	for _, p := range s.peers {
		t, err := p.FetchTape(ctx, key)
		if err == nil {
			return t, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("dist: no peers hold tape %.12s…", key)
	}
	return nil, lastErr
}

// track registers a job in the status table under a fresh id.
func (s *Server) track(job *Job) *jobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	st := &jobStatus{
		ID:       fmt.Sprintf("job-%d", s.seq),
		Workload: job.Workload,
		Variant:  job.Variant,
		State:    "running",
	}
	s.jobs[st.ID] = st
	s.inflight++
	return st
}

// untrack balances track however the job ends — normal completion, a
// panic unwinding through a chaos-cut response stream, a vanished
// caller. A job still "running" on the way out was aborted mid-flight.
func (s *Server) untrack(st *jobStatus) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inflight--
	if st.State == "running" {
		st.State = "aborted"
	}
}

func (s *Server) handleJobStatus(w http.ResponseWriter, id string) {
	s.mu.Lock()
	st, ok := s.jobs[id]
	var snapshot jobStatus
	if ok {
		snapshot = *st
	}
	known := make([]string, 0, len(s.jobs))
	for k := range s.jobs {
		known = append(known, k)
	}
	s.mu.Unlock()
	if !ok {
		msg := fmt.Sprintf("dist: unknown job id %q", id)
		if near := editdist.Nearest(id, known); near != "" {
			msg += fmt.Sprintf(" (did you mean %q?)", near)
		}
		http.Error(w, msg, http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(snapshot)
}

// handleTape serves and accepts tapes in the STMSTAPE wire format.
func (s *Server) handleTape(w http.ResponseWriter, r *http.Request, key string) {
	if s.cfg.Store == nil {
		http.Error(w, "dist: this worker runs without a tape store", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		t, ok := s.cfg.Store.Get(key)
		if !ok {
			msg := fmt.Sprintf("dist: no tape at address %.12s…", key)
			if near := editdist.Nearest(key, s.cfg.Store.Keys()); near != "" {
				msg += fmt.Sprintf(" (nearest resident address: %.12s…)", near)
			}
			http.Error(w, msg, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		if err := trace.WriteTape(w, t); err != nil && r.Context().Err() == nil {
			// Mid-stream failure; the client sees a truncated tape and
			// treats it as a miss.
			return
		}
	case http.MethodPut:
		t, err := trace.ReadTape(r.Body)
		if err != nil {
			http.Error(w, fmt.Sprintf("dist: decoding tape: %v", err), http.StatusBadRequest)
			return
		}
		if err := s.cfg.Store.Put(key, t); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "dist: tapes support GET and PUT", http.StatusMethodNotAllowed)
	}
}

// handleCkpt serves and accepts sealed STMSCKPT containers — the
// checkpoint exchange the coordinator uses to move a dead worker's
// progress to a live one. Both directions verify the container; a
// corrupt checkpoint is a 404 (GET, after discarding it) or a 400
// (PUT), never state.
func (s *Server) handleCkpt(w http.ResponseWriter, r *http.Request, key string) {
	if s.cfg.Store == nil {
		http.Error(w, "dist: this worker runs without a store", http.StatusNotFound)
		return
	}
	switch r.Method {
	case http.MethodGet:
		data, ok := s.cfg.Store.GetCkpt(key)
		if !ok {
			msg := fmt.Sprintf("dist: no checkpoint at address %.12s…", key)
			if near := editdist.Nearest(key, s.cfg.Store.CkptKeys()); near != "" {
				msg += fmt.Sprintf(" (nearest resident address: %.12s…)", near)
			}
			http.Error(w, msg, http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Write(data)
	case http.MethodPut:
		data, err := io.ReadAll(r.Body)
		if err != nil {
			http.Error(w, fmt.Sprintf("dist: reading checkpoint: %v", err), http.StatusBadRequest)
			return
		}
		if err := s.cfg.Store.PutCkpt(key, data); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "dist: checkpoints support GET and PUT", http.StatusMethodNotAllowed)
	}
}
