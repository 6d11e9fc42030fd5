package main

import (
	"context"
	"fmt"
	"time"

	"stms"
)

// replayPerCore bounds the records per core a layer replay drives.
const replayPerCore = 200_000

// replays holds the layer replays' costs on a tape of the workload's
// first row: each layer's public API driven alone, so its host time per
// operation is measured without the rest of the simulator around it.
type replays struct {
	in        *replayInput
	records   uint64 // records per replay of the whole tape
	tapeBytes int64

	decode, cpu, cache, mshr, dram, event, index, prefetch time.Duration

	cacheOps, mshrOps, indexOps, indexHits uint64
	dramN, eventN                          int

	sim    map[string]simReplay // baseline, ideal, stms (timed) and functional
	stream *streamRun           // the tape streamed through the fault proxy
	load   replayLoad
}

// replayLoad is the load the MSHR, DRAM and event replays run at, taken
// from the timed STMS replay's Results, and the DRAM utilization the DRAM
// replay reached with it.
type replayLoad struct {
	DRAMUtil       float64 `json:"dram_util"`
	DRAMUtilReplay float64 `json:"dram_util_replay"`
	MLP            float64 `json:"mlp"`
	MSHRInFlight   int     `json:"mshr_in_flight"` // MLP × cores
	EventsPending  int     `json:"events_pending"` // a dispatch per core + a delivery per miss in flight
}

type simReplay struct {
	res stms.Results
	d   time.Duration
}

// firstSTMS is the workload's first STMS variant.
func (w workload) firstSTMS() stms.PrefSpec {
	for _, ps := range w.lab.prefs {
		if ps.Kind == stms.STMS {
			return ps
		}
	}
	return stmsP
}

func (w workload) firstRow() string { return w.lab.rows[0] }

// runReplays drives every layer from a tape of the workload's first row,
// each replay under its own span. The cheap replays run three times and
// keep the median. The tape is also streamed through the fault proxy,
// and the streamed result must equal the functional replay: one more
// checked operation.
func runReplays(ctx context.Context, w workload, p params, o *outcome) (*replays, error) {
	tr := o.tr
	root := tr.begin(0, "replays")
	defer tr.end(root)

	perCore := min(w.perCore(), replayPerCore)
	id := tr.begin(root, "trace.build")
	tape, err := newTape(w.firstRow(), scale, p.seed, perCore)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	warm := perCore * 2 / 5
	cfg := simConfig(scale, p.seed, warm, perCore-warm)
	in := newReplayInput(tape, perCore, cfg, w.firstSTMS())
	rp := &replays{in: in, records: in.records(), tapeBytes: tapeBytes(tape), sim: map[string]simReplay{}}

	median3 := func(name string, f func() time.Duration) time.Duration {
		id := tr.begin(root, name)
		defer tr.end(id)
		ds := []float64{float64(f()), float64(f()), float64(f())}
		return time.Duration(median(ds))
	}
	rp.decode = median3("trace.decode", func() time.Duration { return replayDecode(in) })
	rp.cpu = median3("cpu", func() time.Duration { return replayCPU(in) })
	rp.cache = median3("cache", func() time.Duration {
		ops, d := replayCache(in)
		rp.cacheOps = ops
		return d
	})
	rp.index = median3("core.index", func() time.Duration {
		ops, hits, d := replayIndex(in)
		rp.indexOps, rp.indexHits = ops, hits
		return d
	})
	rp.prefetch = median3("prefetch", func() time.Duration { return replayPrefetch(in) })

	for _, v := range []struct {
		name  string
		ps    stms.PrefSpec
		timed bool
	}{
		{"baseline", stms.PrefSpec{Kind: stms.None}, true},
		{"ideal", stms.PrefSpec{Kind: stms.Ideal}, true},
		{"stms", in.stms, true},
		{"functional", in.stms, false},
	} {
		id := tr.begin(root, "sim."+v.name)
		t0 := time.Now()
		res, err := runTape(ctx, cfg, tape, v.ps, v.timed)
		rp.sim[v.name] = simReplay{res: res, d: time.Since(t0)}
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("sim replay %s: %w", v.name, err)
		}
	}
	// The MSHR, DRAM and event replays run at the load the timed STMS
	// replay measured: its MLP, and its traffic mix and DRAM utilization.
	stmsRes := rp.sim["stms"].res
	if stmsRes.DRAMUtil <= 0 || stmsRes.MLP <= 0 {
		return nil, fmt.Errorf("timed STMS replay measured no memory load (DRAM utilization %g, MLP %g)", stmsRes.DRAMUtil, stmsRes.MLP)
	}
	rp.load = replayLoad{DRAMUtil: stmsRes.DRAMUtil, MLP: stmsRes.MLP, MSHRInFlight: inFlight(&stmsRes, cores, cfg.L2MSHRs)}
	rp.load.EventsPending = cores + rp.load.MSHRInFlight
	rp.mshr = median3("cache.mshr", func() time.Duration {
		ops, d := replayMSHR(in, rp.load.MSHRInFlight)
		rp.mshrOps = ops
		return d
	})
	rp.dramN = 1 << 18
	rp.dram = median3("dram", func() time.Duration {
		util, d := replayDRAM(cfg, &stmsRes, rp.dramN)
		rp.load.DRAMUtilReplay = util
		return d
	})
	rp.eventN = 1 << 20
	rp.event = median3("event", func() time.Duration { return replayEvents(cfg, rp.eventN, rp.load.EventsPending) })

	id = tr.begin(root, "stream")
	sr, err := runStream(ctx, tape, cfg, in.stms, streamCuts(rp.records, 2))
	tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("stream replay: %w", err)
	}
	rp.stream = sr
	o.attempted++
	want, got := rp.sim["functional"].res, sr.res
	hw, err1 := resultHash(&want)
	hg, err2 := resultHash(&got)
	if err1 != nil || err2 != nil || hw != hg || sr.reconnects != 2 {
		o.failed++
		o.failures = append(o.failures, fmt.Sprintf("stream replay: streamed result equals direct: %v, %d reconnects", hw == hg, sr.reconnects))
	}
	return rp, nil
}
