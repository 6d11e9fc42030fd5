package lab

// The coordinator side of the distributed lab. A session given
// WithWorkers dispatches plan cells to stms-serve worker daemons
// instead of simulating in-process:
//
//   - cells route to workers by rendezvous hashing on their tape
//     address, so every variant column of a matrix row lands where the
//     row's tape already lives and each unique tape is built once
//     fleet-wide;
//   - transport failures (connection refused, stream cut, a stream
//     silent past the stall window) retry the cell on the next-ranked
//     worker; after a full pass over the ranking the coordinator backs
//     off (exponential, full jitter) and tries again, up to
//     Resilience.RetryRounds passes. Job failures are deterministic and
//     surface immediately — retrying elsewhere would fail the same way;
//   - each worker has a circuit breaker: after Resilience.BreakerAfter
//     consecutive transport failures its attempts are skipped outright,
//     and once the cooldown elapses a single /healthz probe decides
//     whether it rejoins. Because the rendezvous ranking is a pure
//     function of (worker URL, tape key) and the breaker only gates it,
//     a recovered worker rejoins exactly its old affinity positions;
//   - when every attempt fails the cell degrades gracefully to
//     in-process simulation, so a matrix always completes — but never
//     silently: the per-attempt errors are aggregated into the cell's
//     ResultEvent note and the session's RemoteStats counters.
//
// Cells are pure functions of their configuration, so remote execution
// is memoization over the network: the Matrix a worker pool produces is
// bit-identical to an in-process run, however unkind the network was.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"stms/internal/dist"
	"stms/internal/sim"
)

// Resilience bounds the coordinator's patience with a misbehaving
// worker pool. The zero value of any field means its default; a
// negative Stall disables the stall detector (not recommended).
type Resilience struct {
	Dial           time.Duration // per-attempt TCP connect deadline (default 5s)
	ResponseHeader time.Duration // per-attempt response-header deadline (default 15s)
	Stall          time.Duration // max silence on a job's event stream (default 30s)

	RetryRounds int           // passes over the worker ranking per cell (default 3)
	BackoffBase time.Duration // backoff before the second pass (default 100ms)
	BackoffMax  time.Duration // backoff cap for later passes (default 5s)

	BreakerAfter    int           // consecutive transport failures that trip a worker's breaker (default 3)
	BreakerCooldown time.Duration // open time before a half-open /healthz probe (default 10s)
	ProbeTimeout    time.Duration // deadline on that probe (default 2s)
}

// withDefaults fills zero fields with the defaults.
func (r Resilience) withDefaults() Resilience {
	if r.Dial == 0 {
		r.Dial = 5 * time.Second
	}
	if r.ResponseHeader == 0 {
		r.ResponseHeader = 15 * time.Second
	}
	if r.Stall == 0 {
		r.Stall = 30 * time.Second
	}
	if r.RetryRounds <= 0 {
		r.RetryRounds = 3
	}
	if r.BackoffBase <= 0 {
		r.BackoffBase = 100 * time.Millisecond
	}
	if r.BackoffMax <= 0 {
		r.BackoffMax = 5 * time.Second
	}
	if r.BreakerAfter <= 0 {
		r.BreakerAfter = 3
	}
	if r.BreakerCooldown <= 0 {
		r.BreakerCooldown = 10 * time.Second
	}
	if r.ProbeTimeout <= 0 {
		r.ProbeTimeout = 2 * time.Second
	}
	return r
}

// RemoteStats reports a coordinator session's dispatch accounting.
type RemoteStats struct {
	Workers     int    // configured worker count
	RemoteCells uint64 // cells completed by a worker
	LocalCells  uint64 // cells that fell back to in-process simulation
	Retries     uint64 // transport failures retried (on another worker or a later round)
	TapeFetches uint64 // remote cells whose tape crossed the network (peer tier)
	TapeBuilds  uint64 // remote cells whose tape was built fresh on the worker

	BreakerTrips uint64 // circuit breakers tripped open (fresh trips and failed probes)
	StallAborts  uint64 // event streams aborted by the stall detector
	BackoffWaits uint64 // backoff sleeps between retry rounds

	CkptResumes uint64        // cells that resumed from a checkpoint (remote or degraded-local)
	CkptFetches uint64        // checkpoints fetched from workers over GET /ckpts
	CkptWrites  uint64        // checkpoints written by workers for this session's cells
	CkptBytes   uint64        // total sealed bytes of those checkpoints
	ResumeWall  time.Duration // worker-measured simulation wall spent in resumed runs
}

// RemoteStats returns a snapshot of the session's remote dispatch
// accounting. A purely local session reports zeroes.
func (l *Lab) RemoteStats() RemoteStats {
	if l.remote == nil {
		return RemoteStats{}
	}
	return l.remote.snapshot()
}

// remotePool holds the coordinator's worker clients, their circuit
// breakers, and the session's dispatch accounting.
type remotePool struct {
	clients  []*dist.Client
	breakers map[*dist.Client]*dist.Breaker
	res      Resilience

	mu    sync.Mutex
	stats RemoteStats
}

func newRemotePool(urls []string, res Resilience, token string, rt http.RoundTripper) *remotePool {
	res = res.withDefaults()
	p := &remotePool{res: res, breakers: make(map[*dist.Client]*dist.Breaker)}
	opts := []dist.ClientOption{dist.WithTimeouts(dist.Timeouts{
		Dial:           res.Dial,
		ResponseHeader: res.ResponseHeader,
		Stall:          res.Stall,
	})}
	if token != "" {
		opts = append(opts, dist.WithAuth(token))
	}
	if rt != nil {
		opts = append(opts, dist.WithTransport(rt))
	}
	for _, u := range urls {
		c := dist.NewClient(u, opts...)
		p.clients = append(p.clients, c)
		p.breakers[c] = dist.NewBreaker(res.BreakerAfter, res.BreakerCooldown)
	}
	p.stats.Workers = len(p.clients)
	return p
}

func (p *remotePool) snapshot() RemoteStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.stats
}

// count applies a stats mutation under the pool lock.
func (p *remotePool) count(f func(*RemoteStats)) {
	p.mu.Lock()
	f(&p.stats)
	p.mu.Unlock()
}

// jobFromCell serializes a cell into its wire identity.
func jobFromCell(c *Cell) (*dist.Job, error) {
	job := &dist.Job{
		Version:  dist.JobFormatVersion,
		Mode:     "timed",
		Workload: c.Workload,
		Variant:  c.Label,
		Config:   c.Config,
		Pref:     c.Pref,
	}
	if c.Mode == Functional {
		job.Mode = "functional"
	}
	if c.Scenario != nil {
		b, err := json.Marshal(c.Scenario)
		if err != nil {
			return nil, fmt.Errorf("lab: encoding scenario %q: %w", c.Scenario.Name, err)
		}
		job.Scenario = b
	} else {
		spec := c.Spec
		job.Spec = &spec
	}
	return job, nil
}

// rank orders the pool's workers for a tape address by rendezvous
// (highest-random-weight) hashing: every coordinator ranks the same
// address the same way, cells sharing a tape agree on a home worker,
// and losing a worker reshuffles only the tapes it owned. The breaker
// gates the ranking but never reorders it, so a recovered worker
// resumes exactly its old positions.
func (p *remotePool) rank(key string) []*dist.Client {
	type scored struct {
		c     *dist.Client
		score uint64
	}
	s := make([]scored, len(p.clients))
	for i, c := range p.clients {
		h := fnv.New64a()
		h.Write([]byte(c.URL()))
		h.Write([]byte{'|'})
		h.Write([]byte(key))
		s[i] = scored{c, h.Sum64()}
	}
	sort.Slice(s, func(i, j int) bool {
		if s[i].score != s[j].score {
			return s[i].score > s[j].score
		}
		return s[i].c.URL() < s[j].c.URL()
	})
	out := make([]*dist.Client, len(s))
	for i := range s {
		out[i] = s[i].c
	}
	return out
}

// backoff computes the sleep before retry round `round` (1-based):
// exponential in the round with full jitter — uniform in (0, cap] —
// derived deterministically from the tape key, so a replayed run backs
// off identically and concurrent cells don't thundering-herd a
// recovering worker.
func (p *remotePool) backoff(key string, round int) time.Duration {
	ceil := p.res.BackoffBase << (round - 1)
	if ceil <= 0 || ceil > p.res.BackoffMax {
		ceil = p.res.BackoffMax
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	fmt.Fprintf(h, "|round=%d", round)
	return time.Duration(h.Sum64()%uint64(ceil)) + 1
}

// attemptLog aggregates per-attempt failures for one cell so a degraded
// dispatch is never silent: the log becomes the cell's ResultEvent
// note.
type attemptLog struct{ entries []string }

func (a *attemptLog) add(format string, args ...any) {
	a.entries = append(a.entries, fmt.Sprintf(format, args...))
}

// String renders the log, capped so a long outage doesn't flood the
// progress stream.
func (a *attemptLog) String() string {
	const max = 6
	if len(a.entries) <= max {
		return strings.Join(a.entries, "; ")
	}
	return strings.Join(a.entries[:max], "; ") +
		fmt.Sprintf("; (+%d more attempts)", len(a.entries)-max)
}

// ckptMatchesJob is the coordinator's identity check on a fetched
// checkpoint: mode, full config, and the complete prefetcher spec
// (JSON-compared — Kind alone would let a checkpoint from a different
// sampling probability restore cleanly into wrong results). The trace
// identity is re-validated by whichever side actually resumes.
func ckptMatchesJob(d sim.CheckpointDesc, job *dist.Job) bool {
	if d.Mode != job.Mode || d.Cfg != job.Config {
		return false
	}
	a, err1 := json.Marshal(d.PS)
	b, err2 := json.Marshal(job.Pref)
	return err1 == nil && err2 == nil && bytes.Equal(a, b)
}

// run executes one cell remotely. It makes up to Resilience.RetryRounds
// passes over the affinity ranking, backing off between passes, gating
// each attempt through the worker's circuit breaker, and falling back
// to local simulation when every attempt fails. The returned duration
// is the cell's non-simulation overhead (coordinator wall minus the
// worker-measured simulation time, or tape wait when local); the
// returned note records any degradation.
//
// Failures cost the tail of the cell, not the cell: after a transport
// failure the coordinator fetches the dead attempt's latest checkpoint
// from that worker's store (GET /ckpts), pushes it to the next worker
// it tries (PUT /ckpts), and the retry resumes mid-run. The
// degrade-to-local path resumes from the same exchanged checkpoint.
// Checkpoints are validated at every hop and discarded on any
// mismatch — a bad checkpoint can cost a cold restart, never a wrong
// result.
func (p *remotePool) run(ctx context.Context, l *Lab, cell *Cell) (sim.Results, time.Duration, string, error) {
	start := time.Now()
	job, err := jobFromCell(cell)
	if err != nil {
		return sim.Results{}, 0, "", err
	}
	key, err := job.TapeKey()
	if err != nil {
		return sim.Results{}, 0, "", err
	}
	ranking := p.rank(key)
	var log attemptLog

	// held is the freshest valid checkpoint the coordinator has
	// exchanged for this cell; adopt validates and keeps the best.
	ckptKey, err := job.CkptKey()
	if err != nil {
		return sim.Results{}, 0, "", err
	}
	ck := cellKey(cell)
	var held []byte
	var heldRecs uint64
	adopt := func(data []byte) bool {
		d, perr := sim.Peek(data)
		if perr != nil || !ckptMatchesJob(d, job) {
			return false
		}
		if held != nil && d.Records <= heldRecs {
			return false
		}
		held, heldRecs = data, d.Records
		l.recordPartial(ck, ckptKey)
		return true
	}
	fetchCkpt := func(c *dist.Client) bool {
		fctx, cancel := context.WithTimeout(ctx, p.res.ProbeTimeout)
		data, ferr := c.FetchCkpt(fctx, ckptKey)
		cancel()
		if ferr != nil || !adopt(data) {
			return false
		}
		p.count(func(s *RemoteStats) { s.CkptFetches++ })
		return true
	}

	// A prior session's manifest recorded a checkpoint for this cell:
	// sweep the ranking for it before the first attempt, so the
	// restarted coordinator resumes the partial cell instead of
	// starting it over.
	if pk := l.partialCkpt(ck); pk == ckptKey {
		for _, c := range ranking {
			if ctx.Err() != nil || fetchCkpt(c) {
				break
			}
		}
	}

	for round := 0; round < p.res.RetryRounds; round++ {
		if round > 0 {
			d := p.backoff(key, round)
			p.count(func(s *RemoteStats) { s.BackoffWaits++ })
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return sim.Results{}, 0, "", ctx.Err()
			}
		}
		for _, c := range ranking {
			if ctx.Err() != nil {
				return sim.Results{}, 0, "", ctx.Err()
			}
			b := p.breakers[c]
			switch b.Gate(time.Now()) {
			case dist.BreakerSkip:
				continue
			case dist.BreakerProbe:
				pctx, cancel := context.WithTimeout(ctx, p.res.ProbeTimeout)
				_, herr := c.Health(pctx)
				cancel()
				if herr != nil {
					if b.Failure(time.Now()) {
						p.count(func(s *RemoteStats) { s.BreakerTrips++ })
					}
					log.add("%s: probe failed: %v", c.URL(), herr)
					continue
				}
				b.Success()
			}
			if held != nil {
				// Best-effort: park the exchanged checkpoint in this
				// worker's store so the job it is about to run resumes
				// from it instead of starting cold.
				pctx, cancel := context.WithTimeout(ctx, p.res.ProbeTimeout)
				c.PushCkpt(pctx, ckptKey, held)
				cancel()
			}
			r, err := c.RunJob(ctx, job, nil)
			if err == nil {
				b.Success()
				p.count(func(s *RemoteStats) {
					s.RemoteCells++
					switch r.TapeSource {
					case dist.TapeFromPeer:
						s.TapeFetches++
					case dist.TapeBuilt:
						s.TapeBuilds++
					}
					s.CkptWrites += r.CkptWrites
					s.CkptBytes += r.CkptBytes
					if r.Resumed {
						s.CkptResumes++
						s.ResumeWall += time.Duration(r.WallMS * float64(time.Millisecond))
					}
				})
				// Satellite accounting fix: the worker measured its own
				// simulation time (Result.WallMS); everything else the
				// coordinator waited through — dial, queueing, retries,
				// tape movement — is overhead, not simulation.
				overhead := time.Since(start) - time.Duration(r.WallMS*float64(time.Millisecond))
				if overhead < 0 {
					overhead = 0
				}
				note := ""
				switch {
				case len(log.entries) > 0 && r.Resumed:
					note = fmt.Sprintf("recovered on %s (resumed from the exchanged checkpoint) after %d failed attempts: %s",
						c.URL(), len(log.entries), log.String())
				case len(log.entries) > 0:
					note = fmt.Sprintf("recovered on %s after %d failed attempts: %s",
						c.URL(), len(log.entries), log.String())
				case r.Resumed:
					note = fmt.Sprintf("resumed from checkpoint on %s", c.URL())
				}
				return r.Res, overhead, note, nil
			}
			if !dist.IsTransport(err) {
				// The job itself failed (or the worker rejected it
				// deterministically — bad structure, bad credentials);
				// retrying elsewhere would fail identically.
				return sim.Results{}, 0, log.String(), err
			}
			p.count(func(s *RemoteStats) {
				s.Retries++
				if errors.Is(err, dist.ErrStalled) {
					s.StallAborts++
				}
			})
			if b.Failure(time.Now()) {
				p.count(func(s *RemoteStats) { s.BreakerTrips++ })
			}
			log.add("%s: %v", c.URL(), err)
			// The attempt died mid-job, but the worker's store may hold
			// the checkpoints the run wrote before it did — fetch the
			// latest so the next attempt (or the local fallback) costs
			// only the tail of the cell.
			if fetchCkpt(c) {
				log.add("fetched its checkpoint (%d records in)", heldRecs)
			}
		}
	}
	// Every attempt failed (or the pool is empty): degrade to in-process
	// execution rather than failing the matrix — loudly, via the note.
	// One final sweep may still recover a checkpoint from a worker that
	// cannot run jobs but still serves its store.
	if held == nil {
		for _, c := range ranking {
			if ctx.Err() != nil || fetchCkpt(c) {
				break
			}
		}
	}
	p.count(func(s *RemoteStats) { s.LocalCells++ })
	if held != nil {
		res, _, resumed, rerr := dist.ExecuteJob(ctx, job, l.tapes, nil, nil, &dist.ExecOptions{Resume: held})
		if rerr == nil {
			if resumed {
				p.count(func(s *RemoteStats) { s.CkptResumes++ })
			}
			note := fmt.Sprintf("degraded to local after %d failed remote attempts", len(log.entries))
			if resumed {
				note += fmt.Sprintf(", resumed from the exchanged checkpoint (%d records in)", heldRecs)
			}
			if len(log.entries) > 0 {
				note += ": " + log.String()
			}
			return res, 0, note, nil
		}
	}
	note := ""
	if len(log.entries) > 0 {
		note = fmt.Sprintf("degraded to local after %d failed remote attempts: %s",
			len(log.entries), log.String())
	}
	res, tapeWait, err := l.simulate(ctx, cell)
	return res, tapeWait, note, err
}
