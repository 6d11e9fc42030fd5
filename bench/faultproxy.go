package main

import (
	"errors"
	"net"
	"sync"
	"time"
)

// errCut is what a severed connection's writer sees.
var errCut = errors.New("bench: connection cut by fault proxy")

// wireBytesPerRecord is the STMSWIRE frame payload per record; the fault
// proxy's cut offsets are thirds of a stream's payload.
const wireBytesPerRecord = 21

// streamCuts are the fault proxy's byte offsets for a stream of records:
// n connections, each severed after a third of the stream's payload.
func streamCuts(records uint64, n int) []int64 {
	offs := make([]int64, n)
	for i := range offs {
		offs[i] = int64(records) * wireBytesPerRecord / 3
	}
	return offs
}

// cutListener is the benchmark's own fault injector for streamed runs:
// it wraps the outlet's listener and severs the first
// len(cuts) accepted connections once the server side has written
// cuts[i] bytes on the i-th, mid-message, as a crash would. Later
// connections pass through. It also counts every byte the server writes
// and times each cut against the next accept (the resume gap).
type cutListener struct {
	net.Listener

	mu      sync.Mutex
	cuts    []int64
	n       int // connections accepted
	written int64
	cutAt   []time.Time
	accepts []time.Time
}

func newCutListener(l net.Listener, cuts ...int64) *cutListener {
	return &cutListener{Listener: l, cuts: cuts}
}

// Accept wraps the next connection, arming its cut if it is one of the
// first len(cuts).
func (l *cutListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	left := int64(-1)
	if l.n < len(l.cuts) {
		left = l.cuts[l.n]
	}
	l.n++
	l.accepts = append(l.accepts, time.Now())
	return &cutConn{Conn: c, l: l, left: left}, nil
}

// stats returns the bytes written by the server side and the longest
// time from a cut to the following accept.
func (l *cutListener) stats() (written int64, maxGap time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, t := range l.cutAt {
		if i+1 < len(l.accepts) {
			maxGap = max(maxGap, l.accepts[i+1].Sub(t))
		}
	}
	return l.written, maxGap
}

// cutConn is one accepted connection; left is the bytes it may still
// write before it is severed (negative: unlimited). The outlet writes
// from one goroutine, so left and severed need no lock.
type cutConn struct {
	net.Conn
	l       *cutListener
	left    int64
	severed bool
}

func (c *cutConn) Write(p []byte) (int, error) {
	if c.severed {
		return 0, errCut
	}
	if c.left < 0 || int64(len(p)) < c.left {
		n, err := c.Conn.Write(p)
		c.account(n, false)
		if c.left >= 0 {
			c.left -= int64(n)
		}
		return n, err
	}
	n, _ := c.Conn.Write(p[:c.left])
	c.Conn.Close()
	c.severed = true
	c.account(n, true)
	return n, errCut
}

func (c *cutConn) account(n int, cut bool) {
	c.l.mu.Lock()
	defer c.l.mu.Unlock()
	c.l.written += int64(n)
	if cut {
		c.l.cutAt = append(c.l.cutAt, time.Now())
	}
}
