package dist

// Per-worker circuit breaker. PR 6's coordinator re-dialed a dead
// worker at full cost for every subsequent cell; the breaker makes
// failure cheap: after K consecutive transport failures the worker is
// skipped outright, and after a cooldown a single /healthz probe
// (half-open state) decides whether it rejoins. Recovery restores the
// worker to exactly its old rendezvous positions — the ranking is a
// pure function of (worker URL, trace key), the breaker only gates it —
// so trace affinity survives a bounce.

import (
	"sync"
	"time"
)

// BreakerState is the classic three-state machine.
type BreakerState int

// Breaker states.
const (
	BreakerClosed   BreakerState = iota // healthy: attempts flow
	BreakerOpen                         // tripped: attempts are skipped until the cooldown elapses
	BreakerHalfOpen                     // probing: one caller is verifying /healthz
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "breaker(?)"
}

// BreakerGate is Gate's verdict on one attempt.
type BreakerGate int

// Gate verdicts.
const (
	// BreakerProceed: attempt the worker directly.
	BreakerProceed BreakerGate = iota
	// BreakerProbe: the cooldown has elapsed; the caller now owns the
	// half-open probe and must report Success or Failure.
	BreakerProbe
	// BreakerSkip: the worker is cooling down (or another caller holds
	// the probe); try the next worker.
	BreakerSkip
)

// Breaker is one worker's circuit breaker. The zero value is unusable;
// construct with NewBreaker. Safe for concurrent use.
type Breaker struct {
	mu       sync.Mutex
	after    int
	cooldown time.Duration
	fails    int
	state    BreakerState
	openedAt time.Time
	trips    uint64
}

// NewBreaker returns a breaker that trips open after `after`
// consecutive transport failures and allows a half-open probe once
// `cooldown` has elapsed. Non-positive arguments fall back to 3
// failures and 10 seconds.
func NewBreaker(after int, cooldown time.Duration) *Breaker {
	if after <= 0 {
		after = 3
	}
	if cooldown <= 0 {
		cooldown = 10 * time.Second
	}
	return &Breaker{after: after, cooldown: cooldown}
}

// Gate decides one attempt. A BreakerProbe verdict transfers the
// half-open probe to the caller: it must follow up with Success (close
// the breaker) or Failure (re-open it); until then other callers are
// told to skip.
func (b *Breaker) Gate(now time.Time) BreakerGate {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return BreakerProceed
	case BreakerOpen:
		if now.Sub(b.openedAt) >= b.cooldown {
			b.state = BreakerHalfOpen
			return BreakerProbe
		}
		return BreakerSkip
	default: // BreakerHalfOpen: a probe is in flight
		return BreakerSkip
	}
}

// Success records a working exchange: the failure streak resets and
// the breaker closes (a recovered worker rejoins its rendezvous
// positions immediately).
func (b *Breaker) Success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails = 0
	b.state = BreakerClosed
}

// Failure records a transport failure and reports whether this one
// tripped the breaker open (a fresh trip or a failed half-open probe).
// Failures while already open — concurrent attempts that were in
// flight when the breaker tripped — neither re-trip nor extend the
// cooldown.
func (b *Breaker) Failure(now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.fails++
	switch b.state {
	case BreakerHalfOpen:
		b.state = BreakerOpen
		b.openedAt = now
		b.trips++
		return true
	case BreakerClosed:
		if b.fails >= b.after {
			b.state = BreakerOpen
			b.openedAt = now
			b.trips++
			return true
		}
	}
	return false
}

// State returns the current state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Trips returns how many times the breaker has tripped open.
func (b *Breaker) Trips() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}
