package dist

// Deterministic fault injection for the distributed lab. The repo's
// cells are pure functions of their configuration, which gives chaos
// testing a perfect oracle: however unkind the injected network is, a
// matrix that completes must export byte-identical results. Injector
// is the unkind network — a schedule-driven fault source that plugs in
// as the coordinator's http.RoundTripper and refuses, stalls, cuts or
// corrupts the exchanges its rules match.
//
// Every fault is keyed to a logical position: a rule fires on the
// matches its own counter places in [From, Until), and a body fault
// takes over after After bytes — a stall at the job's first progress
// event. Replaying the same request sequence against the same schedule
// injects the same faults at the same places, whatever the host's
// load. (Under a parallel coordinator the assignment of match indexes
// to requests follows goroutine interleaving; run the coordinator with
// parallelism 1 when a byte-for-byte replay of the fault sequence
// matters.)

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
)

// FaultKind enumerates the injectable failure modes.
type FaultKind string

// The fault vocabulary. Refuse acts before any response byte moves;
// Stall, Cut and Corrupt act on the response body after rule.After
// bytes have been delivered intact.
const (
	// FaultRefuse fails the request outright, like a connection
	// refused: no response bytes, a transport error to the caller.
	FaultRefuse FaultKind = "refuse"
	// FaultStall delivers rule.After body bytes, withholds the rest,
	// and ends the stream with ErrStalled once the worker has sent the
	// job's first progress event (or its last byte) — a worker that
	// accepted a job, simulated and checkpointed part of it, and went
	// silent. The first progress event comes after the worker's first
	// 4096 records, so the stall is a position in the job, not a
	// window on the wall clock.
	FaultStall FaultKind = "stall"
	// FaultCut delivers rule.After body bytes, then errors — a stream
	// cut mid-job.
	FaultCut FaultKind = "cut"
	// FaultCorrupt delivers rule.After body bytes intact, then flips
	// bits in everything after — a checkpoint corrupted in flight.
	FaultCorrupt FaultKind = "corrupt"
)

// FaultRule matches requests and injects one fault kind. A rule
// matches when Path is a substring of the request's URL path ("" matches
// everything) and the rule's own match counter lies in [From, Until)
// (Until 0 = unbounded).
type FaultRule struct {
	Kind  FaultKind
	Path  string // substring of the URL path ("" = every path)
	From  uint64 // first matching request the rule applies to
	Until uint64 // first matching request it no longer applies to (0 = never)
	After int64  // Stall/Cut/Corrupt: body bytes delivered before the fault
}

// Injector is the fault source. Construct with NewInjector; it is
// safe for concurrent use.
type Injector struct {
	rules []FaultRule
	next  http.RoundTripper

	mu      sync.Mutex
	matched []uint64 // per-rule match counters
	fired   map[FaultKind]uint64
}

// NewInjector builds an injector over the transport real traffic flows
// through (nil = http.DefaultTransport) and the fault schedule.
func NewInjector(next http.RoundTripper, rules ...FaultRule) *Injector {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Injector{
		rules:   append([]FaultRule(nil), rules...),
		next:    next,
		matched: make([]uint64, len(rules)),
		fired:   make(map[FaultKind]uint64),
	}
}

// Fired reports how many times each fault kind has fired.
func (in *Injector) Fired() map[FaultKind]uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	out := make(map[FaultKind]uint64, len(in.fired))
	for k, v := range in.fired {
		out[k] = v
	}
	return out
}

// decide evaluates the schedule for one request path and returns the
// faults that fire, in rule order. Each matching rule advances its own
// counter whether or not it fires, so the schedule is insensitive to
// the faults other rules inject.
func (in *Injector) decide(path string) []*FaultRule {
	in.mu.Lock()
	defer in.mu.Unlock()
	var fire []*FaultRule
	for j := range in.rules {
		r := &in.rules[j]
		if !strings.Contains(path, r.Path) {
			continue
		}
		i := in.matched[j]
		in.matched[j]++
		if i < r.From || (r.Until > 0 && i >= r.Until) {
			continue
		}
		in.fired[r.Kind]++
		fire = append(fire, r)
	}
	return fire
}

// errChaosRefused is the transport-shaped error a refused request
// reports; it flows to callers wrapped in *TransportError by Client.
var errChaosRefused = errors.New("chaos: connection refused")

// RoundTrip implements http.RoundTripper: client-side fault injection
// in front of the real transport.
func (in *Injector) RoundTrip(req *http.Request) (*http.Response, error) {
	var body *FaultRule
	for _, r := range in.decide(req.URL.Path) {
		if r.Kind == FaultRefuse {
			return nil, errChaosRefused
		}
		if body == nil {
			body = r
		}
	}
	resp, err := in.next.RoundTrip(req)
	if err != nil || body == nil {
		return resp, err
	}
	resp.Body = &chaosBody{rc: resp.Body, kind: body.Kind, remaining: body.After}
	return resp, nil
}

// progressEvent marks a job stream's progress events (Event.Kind
// "progress" as the worker's JSON encoder writes it).
var progressEvent = []byte(`"event":"progress"`)

// chaosBody wraps a response body: After bytes pass intact, then the
// fault takes over.
type chaosBody struct {
	rc        io.ReadCloser
	kind      FaultKind
	remaining int64
}

func (b *chaosBody) Close() error { return b.rc.Close() }

func (b *chaosBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		switch b.kind {
		case FaultCut:
			return 0, errors.New("chaos: stream cut")
		case FaultStall:
			// Withhold the worker's events up to and including its first
			// progress event, then end the stream. The worker sends one
			// event per line.
			lines := bufio.NewReader(b.rc)
			for {
				line, err := lines.ReadBytes('\n')
				if bytes.Contains(line, progressEvent) || err != nil {
					return 0, fmt.Errorf("chaos: stream withheld from the first progress event: %w", ErrStalled)
				}
			}
		default: // FaultCorrupt
			n, err := b.rc.Read(p)
			for i := 0; i < n; i++ {
				p[i] ^= 0xa5
			}
			return n, err
		}
	}
	if int64(len(p)) > b.remaining {
		p = p[:b.remaining]
	}
	n, err := b.rc.Read(p)
	b.remaining -= int64(n)
	return n, err
}
