package sim

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"

	"stms/internal/trace"
)

// capture reads the first n records of a never-dry generator.
func capture(g trace.Generator, n uint64) []trace.Record {
	f := trace.NewFrameCap(int(n))
	g.ReadFrame(f)
	recs := make([]trace.Record, n)
	for i := range recs {
		f.Record(i, &recs[i])
	}
	return recs
}

// deadProducerSource builds a FrameSource over a flat trace file whose
// header promises more records than the file holds — the shape a run
// sees when its producer dies mid-stream.
func deadProducerSource(t *testing.T, cfg Config, scaled trace.Spec) trace.FrameSource {
	t.Helper()
	total := cfg.WarmRecords + cfg.MeasureRecords
	lib := trace.NewLibrary(scaled, cfg.Seed)
	recs := capture(trace.NewGenerator(lib, 0, cfg.Seed), total)
	var buf bytes.Buffer
	if err := trace.WriteAll(&buf, recs); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data = data[:len(data)-len(data)/3] // the producer dies ~2/3 through
	rd, err := trace.NewFileReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	return trace.Frames(rd)
}

// TestSourceDeathIsAnError pins the contract that a FrameSource whose
// producer fails mid-run surfaces that failure from the driver — a
// truncated trace must never pass for a short-but-clean result.
func TestSourceDeathIsAnError(t *testing.T) {
	cfg := testConfig()
	cfg.Cores = 1
	scaled := spec(t, "web-apache").Scaled(cfg.Scale)
	run := func() SourceRun {
		return SourceRun{
			Spec:    scaled,
			Sources: []trace.FrameSource{deadProducerSource(t, cfg, scaled)},
			PerCore: cfg.WarmRecords + cfg.MeasureRecords,
		}
	}
	t.Run("timed", func(t *testing.T) {
		_, err := run1(context.Background(), cfg, FromSources(run()), PrefSpec{Kind: None})
		if err == nil || !strings.Contains(err.Error(), "trace source failed mid-run") {
			t.Fatalf("timed driver swallowed a dead producer: err=%v", err)
		}
	})
	t.Run("functional", func(t *testing.T) {
		_, err := run1(context.Background(), cfg, FromSources(run()), PrefSpec{Kind: None}, WithMode(Functional))
		if err == nil || !strings.Contains(err.Error(), "trace source failed mid-run") {
			t.Fatalf("functional driver swallowed a dead producer: err=%v", err)
		}
	})
}

// TestRunStartsNoGoroutine pins the synchronous frame source: with a
// spare processor to run one on, neither driver starts a goroutine to
// fill frames — every record is read on the goroutine running the
// simulation.
func TestRunStartsNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := testConfig()
	cfg.WarmRecords, cfg.MeasureRecords = 4000, 12_000
	for _, mode := range []Mode{Timed, Functional} {
		before := runtime.NumGoroutine()
		most, polls := 0, 0
		progress := WithProgress(func(done, total uint64) {
			polls++
			most = max(most, runtime.NumGoroutine())
		})
		if _, err := run1(context.Background(), cfg, FromSpec(spec(t, "web-apache")), PrefSpec{Kind: STMS, SampleProb: 0.125}, WithMode(mode), progress); err != nil {
			t.Fatal(err)
		}
		if polls == 0 {
			t.Fatalf("mode %v: progress never polled", mode)
		}
		if most > before {
			t.Fatalf("mode %v: %d goroutines during the run, %d before", mode, most, before)
		}
	}
}
