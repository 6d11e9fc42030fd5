package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"stms/internal/ckpt"
)

// Timeouts are the client's per-attempt deadlines. Jobs can
// legitimately run for a long time, so there is deliberately no
// overall request timeout; instead each phase of an exchange is
// bounded — the dial (5s), the response headers (15s), and (the one a
// caller tunes) silence on the event stream. The worker emits throttled
// progress events a few times a second and queue heartbeats while a
// job waits for an execution slot, so a stream silent past Stall is a
// transport failure, not a long job.
type Timeouts struct {
	Stall time.Duration // max event-stream silence (default 30s; <0 disables)
}

// The fixed per-attempt deadlines of BaseTransport.
const (
	dialTimeout           = 5 * time.Second
	responseHeaderTimeout = 15 * time.Second
)

// withDefaults fills zero fields with the defaults.
func (t Timeouts) withDefaults() Timeouts {
	if t.Stall == 0 {
		t.Stall = 30 * time.Second
	}
	return t
}

// BaseTransport builds the deadline-bearing transport NewClient uses
// by default. Exposed so fault injectors and custom transports can
// wrap the same thing the real path runs on.
func BaseTransport() *http.Transport {
	return &http.Transport{
		DialContext:           (&net.Dialer{Timeout: dialTimeout}).DialContext,
		ResponseHeaderTimeout: responseHeaderTimeout,
		MaxIdleConnsPerHost:   16,
	}
}

// ErrStalled marks an event stream aborted by the stall detector: the
// worker accepted the job and then went silent past the heartbeat
// window. It is always wrapped in *TransportError — a stalled worker
// is a failed transport, and the job retries elsewhere.
var ErrStalled = errors.New("dist: event stream stalled past the heartbeat window")

// ClientOption configures a Client at construction time.
type ClientOption func(*Client)

// WithAuth attaches a shared-secret bearer token to every request the
// client makes, matching a worker started with ServerConfig.Token
// (stms-serve -token).
func WithAuth(token string) ClientOption {
	return func(c *Client) { c.token = token }
}

// WithTimeouts replaces the client's stall window (zero keeps the
// default).
func WithTimeouts(t Timeouts) ClientOption {
	return func(c *Client) { c.timeouts = t.withDefaults() }
}

// WithTransport replaces the client's HTTP transport wholesale — the
// chaos injector's hook. The dial and header deadlines do not apply
// through a custom transport (wrap BaseTransport to keep them); the
// stall detector still does.
func WithTransport(rt http.RoundTripper) ClientOption {
	return func(c *Client) { c.transport = rt }
}

// Client is the coordinator's handle on one worker. Errors it returns
// are either *TransportError (the worker or the network failed —
// retry the job on another worker) or plain errors (the job itself
// failed, or the worker rejected the request deterministically — an
// invalid job, a wrong bearer token — so retrying would fail the same
// way). The zero value is not usable; construct with NewClient.
type Client struct {
	base      string
	http      *http.Client
	token     string
	timeouts  Timeouts
	transport http.RoundTripper
}

// NewClient returns a client for the worker at base (e.g.
// "http://127.0.0.1:9090"). Per-attempt deadlines bound the dial, the
// response headers, and event-stream silence (Timeouts); there is no
// overall timeout — pass a context to bound one.
func NewClient(base string, opts ...ClientOption) *Client {
	c := &Client{base: strings.TrimRight(base, "/"), timeouts: Timeouts{}.withDefaults()}
	for _, opt := range opts {
		opt(c)
	}
	rt := c.transport
	if rt == nil {
		rt = BaseTransport()
	}
	c.http = &http.Client{Transport: rt}
	return c
}

// URL returns the worker's base URL.
func (c *Client) URL() string { return c.base }

// do sends a request with the client's credentials attached.
func (c *Client) do(req *http.Request) (*http.Response, error) {
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return c.http.Do(req)
}

// authError turns a 401 into a deterministic (non-transport) error:
// the worker is alive and answering; it rejected the credentials, and
// every retry would be rejected the same way.
func (c *Client) authError(resp *http.Response) error {
	msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	return fmt.Errorf("dist: %s rejected the request credentials (401): %s",
		c.base, strings.TrimSpace(string(msg)))
}

// Health fetches the worker's health document.
func (c *Client) Health(ctx context.Context) (*Health, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return nil, &TransportError{err}
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, &TransportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return nil, c.authError(resp)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &TransportError{fmt.Errorf("dist: %s/healthz: %s", c.base, resp.Status)}
	}
	var h Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return nil, &TransportError{fmt.Errorf("dist: decoding health from %s: %w", c.base, err)}
	}
	if h.Version != HealthFormatVersion {
		return nil, &TransportError{fmt.Errorf("dist: %s speaks health version %d, want %d", c.base, h.Version, HealthFormatVersion)}
	}
	return &h, nil
}

// stallWatch aborts a silent event stream: a timer armed at the stall
// window closes the response body unless bytes keep arriving, and the
// read that the close interrupts reports ErrStalled rather than a plain
// cut.
type stallWatch struct {
	rc      io.ReadCloser
	timer   *time.Timer
	window  time.Duration
	stalled atomic.Bool
}

func newStallWatch(rc io.ReadCloser, window time.Duration) *stallWatch {
	w := &stallWatch{rc: rc, window: window}
	w.timer = time.AfterFunc(window, func() {
		w.stalled.Store(true)
		rc.Close()
	})
	return w
}

func (w *stallWatch) Read(p []byte) (int, error) {
	n, err := w.rc.Read(p)
	if w.stalled.Load() {
		return n, fmt.Errorf("silent for %s: %w", w.window, ErrStalled)
	}
	if n > 0 {
		w.timer.Reset(w.window)
	}
	return n, err
}

func (w *stallWatch) stop() { w.timer.Stop() }

// RunJob posts a job to the worker and consumes its event stream until
// the terminal event, invoking onEvent (if non-nil) for every event —
// including the terminal one — as it arrives. It returns the Result of
// a "done" event; a "failed" event becomes a plain (non-transport)
// error, and a stream that ends without a terminal event — cut,
// malformed, or silent past the stall window (ErrStalled) — is a
// transport failure.
func (c *Client) RunJob(ctx context.Context, job *Job, onEvent func(Event)) (*Result, error) {
	body, err := json.Marshal(job)
	if err != nil {
		return nil, fmt.Errorf("dist: encoding job: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, &TransportError{err}
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.do(req)
	if err != nil {
		return nil, &TransportError{err}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusBadRequest:
		// The worker rejected the job's structure: deterministic.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("dist: %s rejected the job: %s", c.base, strings.TrimSpace(string(msg)))
	case resp.StatusCode == http.StatusUnauthorized:
		return nil, c.authError(resp)
	case resp.StatusCode != http.StatusOK:
		return nil, &TransportError{fmt.Errorf("dist: %s/jobs: %s", c.base, resp.Status)}
	}

	// The stream is a sequence of JSON values; json.Decoder handles
	// arbitrarily large results without line-length limits. The stall
	// watchdog closes the body if it goes silent past the window.
	var stream io.Reader = resp.Body
	if c.timeouts.Stall > 0 {
		watch := newStallWatch(resp.Body, c.timeouts.Stall)
		defer watch.stop()
		stream = watch
	}
	dec := json.NewDecoder(stream)
	for {
		var ev Event
		if err := dec.Decode(&ev); err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if errors.Is(err, ErrStalled) {
				return nil, &TransportError{fmt.Errorf("dist: job stream from %s: %w", c.base, err)}
			}
			return nil, &TransportError{fmt.Errorf("dist: job stream from %s cut: %w", c.base, err)}
		}
		if ev.Version != EventFormatVersion {
			return nil, &TransportError{fmt.Errorf("dist: %s speaks event version %d, want %d", c.base, ev.Version, EventFormatVersion)}
		}
		if onEvent != nil {
			onEvent(ev)
		}
		switch ev.Kind {
		case "done":
			if ev.Result == nil || ev.Result.Version != ResultFormatVersion {
				return nil, &TransportError{fmt.Errorf("dist: malformed done event from %s", c.base)}
			}
			return ev.Result, nil
		case "failed":
			return nil, fmt.Errorf("dist: job %s/%s failed on %s: %s", job.Workload, job.Variant, c.base, ev.Error)
		case "checkpointed":
			// The worker drained: it flushed the job's final checkpoint
			// to its store and shut down. Transport-class so the retry
			// loop moves the job — after fetching the checkpoint, the
			// retry resumes warm instead of starting over.
			return nil, &TransportError{fmt.Errorf("dist: job %s/%s on %s: %w",
				job.Workload, job.Variant, c.base, ErrWorkerCheckpointed)}
		}
	}
}

// FetchCkpt downloads the sealed checkpoint container at the given
// address. The container is verified before it is returned; corruption
// in transit reads as a transport error, and the caller validates the
// checkpoint's identity against its job before resuming from it.
func (c *Client) FetchCkpt(ctx context.Context, key string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/ckpts/"+key, nil)
	if err != nil {
		return nil, &TransportError{err}
	}
	resp, err := c.do(req)
	if err != nil {
		return nil, &TransportError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusUnauthorized {
		return nil, c.authError(resp)
	}
	if resp.StatusCode == http.StatusNotFound {
		// Deterministic: the worker is alive and does not hold it.
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return nil, fmt.Errorf("dist: %s: %s", c.base, strings.TrimSpace(string(msg)))
	}
	if resp.StatusCode != http.StatusOK {
		return nil, &TransportError{fmt.Errorf("dist: %s/ckpts/%.12s…: %s", c.base, key, resp.Status)}
	}
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, &TransportError{fmt.Errorf("dist: reading checkpoint %.12s… from %s: %w", key, c.base, err)}
	}
	if _, err := ckpt.Open(data); err != nil {
		return nil, &TransportError{fmt.Errorf("dist: checkpoint %.12s… from %s: %w", key, c.base, err)}
	}
	return data, nil
}

// PushCkpt uploads a sealed checkpoint container to the worker's store
// under its address, so a retried job finds it locally and resumes.
func (c *Client) PushCkpt(ctx context.Context, key string, data []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, c.base+"/ckpts/"+key, bytes.NewReader(data))
	if err != nil {
		return &TransportError{err}
	}
	resp, err := c.do(req)
	if err != nil {
		return &TransportError{err}
	}
	defer resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusBadRequest:
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("dist: %s rejected the checkpoint: %s", c.base, strings.TrimSpace(string(msg)))
	case resp.StatusCode == http.StatusUnauthorized:
		return c.authError(resp)
	case resp.StatusCode != http.StatusNoContent:
		return &TransportError{fmt.Errorf("dist: %s/ckpts/%.12s…: %s", c.base, key, resp.Status)}
	}
	return nil
}
