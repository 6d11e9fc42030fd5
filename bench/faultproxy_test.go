package main

import (
	"context"
	"errors"
	"net"
	"testing"
)

// TestCutListenerResumesExactly streams a tape through the fault proxy
// with its first two connections severed mid-stream: the inlet must
// reconnect exactly twice and the functional result must equal the
// direct tape run.
func TestCutListenerResumesExactly(t *testing.T) {
	const perCore = 20_000
	cfg := simConfig(scale, 7, perCore/2, perCore/2)
	tape, err := newTape("oltp-db2", scale, 7, perCore)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	direct, err := runTape(ctx, cfg, tape, stmsP, false)
	if err != nil {
		t.Fatal(err)
	}
	cuts := streamCuts(perCore*uint64(cores), 2)
	sr, err := runStream(ctx, tape, cfg, stmsP, cuts)
	if err != nil {
		t.Fatal(err)
	}
	if sr.reconnects != 2 {
		t.Errorf("reconnects = %d, want 2", sr.reconnects)
	}
	want, _ := resultHash(&direct)
	got, _ := resultHash(&sr.res)
	if got != want {
		t.Error("streamed result differs from the direct run")
	}
	written, gap := sr.proxy.stats()
	if written <= 2*cuts[0] {
		t.Errorf("proxy wrote %d bytes, want more than the %d carried by the two cut connections", written, 2*cuts[0])
	}
	if gap <= 0 {
		t.Errorf("resume gap %v, want positive", gap)
	}
	// The listener is closed once the run returns: its port is free
	// again, and accepting on it fails at once.
	l2, err := net.Listen("tcp", sr.proxy.Addr().String())
	if err != nil {
		t.Fatalf("stream listener still open after the run: %v", err)
	}
	l2.Close()
	if _, err := sr.proxy.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Errorf("Accept after the run: %v, want %v", err, net.ErrClosed)
	}
}
