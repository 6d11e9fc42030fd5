package dist

// Deterministic fault injection for the distributed lab. The repo's
// cells are pure functions of their configuration, which gives chaos
// testing a perfect oracle: however unkind the injected network is, a
// matrix that completes must export byte-identical results. Injector
// is the unkind network — a seeded, schedule-driven fault source that
// plugs in as an http.RoundTripper on the coordinator's side and as
// handler middleware (Wrap) on a worker's side, so both halves of a
// connection can refuse, stall, cut, delay, or corrupt on a replayable
// schedule.
//
// Every decision is a pure function of (seed, rule index, the rule's
// own match counter): replaying the same request sequence against the
// same seed and schedule injects the same faults at the same places,
// so a failure found in CI reproduces locally. (Under a parallel
// coordinator the assignment of match indexes to requests follows
// goroutine interleaving; run the coordinator with parallelism 1 when
// a byte-for-byte replay of the fault sequence matters.)

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"
)

// FaultKind enumerates the injectable failure modes.
type FaultKind string

// The fault vocabulary. Refuse and Latency act before any response
// byte moves; Stall, Cut and Corrupt act on the response body after
// rule.After bytes have been delivered intact.
const (
	// FaultRefuse fails the request outright, like a connection
	// refused: no response bytes, a transport error to the caller. As
	// middleware it aborts the connection instead.
	FaultRefuse FaultKind = "refuse"
	// FaultLatency delays the exchange by rule.Latency before letting
	// it proceed.
	FaultLatency FaultKind = "latency"
	// FaultStall delivers rule.After body bytes, then delivers nothing
	// until the caller gives up (stall detector, context, close) — a
	// worker that accepted a job and went silent.
	FaultStall FaultKind = "stall"
	// FaultCut delivers rule.After body bytes, then errors — a stream
	// cut mid-job.
	FaultCut FaultKind = "cut"
	// FaultCorrupt delivers rule.After body bytes intact, then flips
	// bits in everything after — a checkpoint corrupted in flight.
	FaultCorrupt FaultKind = "corrupt"
)

// FaultRule matches requests and injects one fault kind. A rule
// matches when Host and Path are substrings of the request's URL host
// and path ("" matches everything) and the rule's own match counter
// lies in [From, Until) (Until 0 = unbounded). Among matches, the
// fault fires with probability Prob (outside (0,1) = always), decided
// deterministically from the injector seed.
type FaultRule struct {
	Kind    FaultKind
	Host    string        // substring of the URL host ("" = every host)
	Path    string        // substring of the URL path ("" = every path)
	From    uint64        // first matching request the rule applies to
	Until   uint64        // first matching request it no longer applies to (0 = never)
	Prob    float64       // fire probability per match; <=0 or >=1 = always
	After   int64         // Stall/Cut/Corrupt: body bytes delivered before the fault
	Latency time.Duration // Latency: injected delay
}

// matches reports whether the rule applies to a request shape, before
// windowing and probability.
func (r *FaultRule) matches(host, path string) bool {
	return strings.Contains(host, r.Host) && strings.Contains(path, r.Path)
}

// Injector is the seeded fault source. The zero value is unusable;
// construct with NewInjector. One injector may serve as RoundTripper
// and middleware simultaneously (the rule counters are shared); it is
// safe for concurrent use.
type Injector struct {
	seed  uint64
	rules []FaultRule
	next  http.RoundTripper

	mu      sync.Mutex
	matched []uint64 // per-rule match counters
	fired   map[FaultKind]uint64
}

// NewInjector builds an injector over a seed, the transport real
// traffic flows through (nil = http.DefaultTransport; middleware use
// ignores it), and the fault schedule.
func NewInjector(seed uint64, next http.RoundTripper, rules ...FaultRule) *Injector {
	if next == nil {
		next = http.DefaultTransport
	}
	return &Injector{
		seed:    seed,
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

// splitmix64 is the usual splitmix finalizer: a bijective avalanche,
// here the whole of the injector's randomness.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide evaluates the schedule for one request shape and returns the
// faults that fire, in rule order. Each matching rule advances its own
// counter whether or not it fires, so the schedule is insensitive to
// the faults other rules inject.
func (in *Injector) decide(host, path string) []*FaultRule {
	in.mu.Lock()
	defer in.mu.Unlock()
	var fire []*FaultRule
	for j := range in.rules {
		r := &in.rules[j]
		if !r.matches(host, path) {
			continue
		}
		i := in.matched[j]
		in.matched[j]++
		if i < r.From || (r.Until > 0 && i >= r.Until) {
			continue
		}
		if r.Prob > 0 && r.Prob < 1 {
			u := splitmix64(in.seed ^ uint64(j)<<32 ^ i)
			if float64(u>>11)/float64(1<<53) >= r.Prob {
				continue
			}
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
	var latency time.Duration
	for _, r := range in.decide(req.URL.Host, req.URL.Path) {
		switch r.Kind {
		case FaultRefuse:
			return nil, errChaosRefused
		case FaultLatency:
			latency += r.Latency
		default:
			if body == nil {
				body = r
			}
		}
	}
	if latency > 0 {
		select {
		case <-time.After(latency):
		case <-req.Context().Done():
			return nil, req.Context().Err()
		}
	}
	resp, err := in.next.RoundTrip(req)
	if err != nil || body == nil {
		return resp, err
	}
	resp.Body = &chaosBody{
		rc:        resp.Body,
		kind:      body.Kind,
		remaining: body.After,
		done:      req.Context().Done(),
		closed:    make(chan struct{}),
	}
	return resp, nil
}

// chaosBody wraps a response body: After bytes pass intact, then the
// fault takes over. Close always unblocks a stalled Read (the stall
// detector and the http machinery both close the body to give up).
type chaosBody struct {
	rc        io.ReadCloser
	kind      FaultKind
	remaining int64
	done      <-chan struct{} // request context
	closed    chan struct{}
	once      sync.Once
}

func (b *chaosBody) Close() error {
	b.once.Do(func() { close(b.closed) })
	return b.rc.Close()
}

func (b *chaosBody) Read(p []byte) (int, error) {
	if b.remaining <= 0 {
		switch b.kind {
		case FaultCut:
			return 0, errors.New("chaos: stream cut")
		case FaultStall:
			select {
			case <-b.closed:
			case <-b.done:
			}
			return 0, errors.New("chaos: stalled stream abandoned")
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

// Wrap is the middleware half: server-side fault injection around a
// worker's handler. Refuse aborts the connection (the client sees a
// cut, not a status); Stall and Cut deliver After response bytes and
// then hang (until the client goes away) or abort; Corrupt flips bits
// after the threshold — the receiver's container check must reject
// the checkpoint.
func (in *Injector) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var body *FaultRule
		for _, rule := range in.decide(r.Host, r.URL.Path) {
			switch rule.Kind {
			case FaultRefuse:
				panic(http.ErrAbortHandler)
			case FaultLatency:
				select {
				case <-time.After(rule.Latency):
				case <-r.Context().Done():
					return
				}
			default:
				if body == nil {
					body = rule
				}
			}
		}
		if body == nil {
			next.ServeHTTP(w, r)
			return
		}
		next.ServeHTTP(&chaosWriter{
			ResponseWriter: w,
			kind:           body.Kind,
			remaining:      body.After,
			done:           r.Context().Done(),
		}, r)
	})
}

// chaosWriter is the response-side twin of chaosBody.
type chaosWriter struct {
	http.ResponseWriter
	kind      FaultKind
	remaining int64
	done      <-chan struct{}
}

func (cw *chaosWriter) Write(p []byte) (int, error) {
	if cw.remaining > 0 {
		head := p
		if int64(len(head)) > cw.remaining {
			head = head[:cw.remaining]
		}
		n, err := cw.ResponseWriter.Write(head)
		cw.remaining -= int64(n)
		if err != nil || n < len(head) {
			return n, err
		}
		if len(head) == len(p) {
			return n, nil
		}
		m, err := cw.write(p[len(head):])
		return n + m, err
	}
	return cw.write(p)
}

// write handles bytes past the fault threshold.
func (cw *chaosWriter) write(p []byte) (int, error) {
	switch cw.kind {
	case FaultCut:
		panic(http.ErrAbortHandler)
	case FaultStall:
		<-cw.done
		panic(http.ErrAbortHandler)
	default: // FaultCorrupt
		q := make([]byte, len(p))
		for i, c := range p {
			q[i] = c ^ 0xa5
		}
		return cw.ResponseWriter.Write(q)
	}
}

// Flush keeps the worker's streamed-event flushing working through the
// wrapper.
func (cw *chaosWriter) Flush() {
	if f, ok := cw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// String renders a rule for logs and test failures.
func (r FaultRule) String() string {
	return fmt.Sprintf("%s host~%q path~%q [%d,%d) p=%g after=%d lat=%s",
		r.Kind, r.Host, r.Path, r.From, r.Until, r.Prob, r.After, r.Latency)
}
