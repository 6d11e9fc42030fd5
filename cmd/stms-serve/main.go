// Command stms-serve is the distributed lab: the same run matrices the
// stms.Lab API executes in-process, sharded across worker processes.
//
// Worker mode serves the dist HTTP API — cell jobs in, streamed JSON
// progress events out. Workers generate every job's trace live, as an
// in-process lab does, and keep a checkpoint store (in memory, and in
// the -ckpt-dir directory when one is given):
//
//	stms-serve -worker -listen :9090 -ckpt-dir /var/tmp/stms-ckpts \
//	           -checkpoint-every 100000
//
// With -checkpoint-every, workers checkpoint running jobs to the store
// (exchanged over GET/PUT /ckpts/{key}), so a worker lost mid-cell
// costs only the tail of the cell: the coordinator moves the dead
// worker's latest checkpoint to the retry, which resumes mid-run.
// Workers never ask each other for checkpoints: the coordinator's
// exchange is the one path a checkpoint travels. SIGINT drains
// gracefully — in-progress jobs flush a final checkpoint before the
// listener closes.
//
// Coordinate mode plans a workload × variant matrix and dispatches its
// cells to workers, retrying transport failures and degrading to local
// execution when no worker is reachable:
//
//	stms-serve -coordinate -workers http://host1:9090,http://host2:9090 \
//	           -variants baseline,ideal,stms@p=0.125 -scale 0.125 \
//	           -manifest run.manifest -json out.json
//
// Cells are pure functions of their configuration, so the matrix a
// worker pool produces is bit-identical to an in-process run; -json
// exports are byte-comparable across runs and topologies (the
// per-cell wall_ms, which measures the machine rather than the
// simulated system, is zeroed in the export). -manifest makes the run
// resumable: a killed coordinator restarted with the same flags skips
// every cell the manifest already holds.
//
// Live STMSWIRE trace streams (DESIGN.md §14) are not served here:
// stms-trace -wire serves them and stms-sim -connect consumes them.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"time"

	"stms"
	"stms/internal/dist"
)

func main() {
	worker := flag.Bool("worker", false, "run as a worker daemon")
	coordinate := flag.Bool("coordinate", false, "run a matrix as coordinator")
	token := flag.String("token", "", "shared-secret bearer token: required of callers in worker mode, presented to workers in coordinate mode (GET /healthz stays open)")

	// Worker flags.
	listen := flag.String("listen", ":9090", "worker listen address")
	name := flag.String("name", "", "worker name in results and health documents (default: the listen address)")
	ckptDir := flag.String("ckpt-dir", "", "checkpoint store disk tier (STMSCKPT directory; empty = memory only)")
	maxJobs := flag.Int("max-jobs", 0, "concurrent job bound (0 = all CPUs)")
	ckptEvery := flag.Uint64("checkpoint-every", 0, "checkpoint running jobs to the checkpoint store every N records (0 = only on graceful shutdown)")

	// Coordinator flags.
	workers := flag.String("workers", "", "comma-separated worker URLs to dispatch cells to")
	workloads := flag.String("workloads", "", "comma-separated workload names (default: the paper's figure-eight suite)")
	variants := flag.String("variants", "baseline,ideal,stms@p=0.125",
		"comma-separated prefetcher variants: baseline|ideal|stms|tse|ebcp|ulmt|markov, with optional @p=<prob> @d=<depth> @h=<history> @i=<index>")
	mode := flag.String("mode", "timed", "simulation driver: timed or functional")
	scale := flag.Float64("scale", 0.125, "system scale factor")
	seed := flag.Uint64("seed", 42, "trace and sampling seed")
	warm := flag.Uint64("warm", 80_000, "warm-up records per core")
	measure := flag.Uint64("measure", 120_000, "measured records per core")
	par := flag.Int("par", 0, "in-flight cell bound (0 = all CPUs)")
	manifest := flag.String("manifest", "", "resumable job manifest path (JSON lines)")
	jsonOut := flag.String("json", "", "write the matrix JSON (canonical: per-cell wall_ms zeroed) to this file")
	retryRounds := flag.Int("retry-rounds", 0, "passes over the worker ranking per cell (0 = default 3)")
	stall := flag.Duration("stall", 0, "max silence on a job's event stream before the cell retries elsewhere (0 = default 30s)")
	breakerAfter := flag.Int("breaker-after", 0, "consecutive transport failures that trip a worker's circuit breaker (0 = default 3)")
	breakerCooldown := flag.Duration("breaker-cooldown", 0, "breaker open time before a half-open /healthz probe (0 = default 10s)")
	flag.Parse()

	switch {
	case *worker == *coordinate:
		fmt.Fprintln(os.Stderr, "stms-serve: pass exactly one of -worker and -coordinate")
		os.Exit(2)
	case *worker:
		if err := runWorker(*listen, *name, *ckptDir, *maxJobs, *token, *ckptEvery); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	default:
		err := runCoordinator(coordinatorOptions{
			workers:   splitList(*workers),
			workloads: splitList(*workloads),
			variants:  splitList(*variants),
			mode:      *mode,
			scale:     *scale,
			seed:      *seed,
			warm:      *warm,
			measure:   *measure,
			par:       *par,
			manifest:  *manifest,
			jsonOut:   *jsonOut,
			token:     *token,
			resilience: stms.Resilience{
				RetryRounds:     *retryRounds,
				Stall:           *stall,
				BreakerAfter:    *breakerAfter,
				BreakerCooldown: *breakerCooldown,
			},
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
}

// splitList parses a comma-separated flag, dropping empty elements.
func splitList(s string) []string {
	var out []string
	for _, v := range strings.Split(s, ",") {
		if v = strings.TrimSpace(v); v != "" {
			out = append(out, v)
		}
	}
	return out
}

// runWorker serves the dist worker API until interrupted. Graceful
// shutdown is checkpoint-first: the drain makes every in-progress job
// flush a final checkpoint to the store and end its stream with a
// terminal "checkpointed" event — so the coordinator retries the job
// warm on another worker — before the listener closes.
func runWorker(listen, name, ckptDir string, maxJobs int, token string, ckptEvery uint64) error {
	if name == "" {
		name = listen
	}
	srv := stms.NewWorkerServer(stms.WorkerConfig{
		Name:            name,
		CkptDir:         ckptDir,
		MaxJobs:         maxJobs,
		Token:           token,
		CheckpointEvery: ckptEvery,
	})
	hs := &http.Server{Addr: listen, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- hs.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "stms-serve: worker %q listening on %s (ckpt-dir=%q, checkpoint-every=%d)\n",
		name, listen, ckptDir, ckptEvery)

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "stms-serve: draining: in-progress jobs are flushing final checkpoints")
		srv.Drain()
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		return hs.Shutdown(sctx)
	}
}

type coordinatorOptions struct {
	workers    []string
	workloads  []string
	variants   []string
	mode       string
	scale      float64
	seed       uint64
	warm       uint64
	measure    uint64
	par        int
	manifest   string
	jsonOut    string
	token      string
	resilience stms.Resilience
}

// runCoordinator executes one matrix across the worker pool and prints
// the speedup table plus dispatch accounting.
func runCoordinator(o coordinatorOptions) error {
	prefs, labels, err := parseVariants(o.variants)
	if err != nil {
		return err
	}
	if len(o.workloads) == 0 {
		o.workloads = stms.FigureEight()
	}

	opts := []stms.Option{
		stms.WithScale(o.scale), stms.WithSeed(o.seed),
		stms.WithWindows(o.warm, o.measure),
	}
	if o.par > 0 {
		opts = append(opts, stms.WithParallelism(o.par))
	}
	if len(o.workers) > 0 {
		opts = append(opts, stms.WithWorkers(o.workers), stms.WithResilience(o.resilience))
		if o.token != "" {
			opts = append(opts, stms.WithWorkerAuth(o.token))
		}
	}
	if o.manifest != "" {
		opts = append(opts, stms.WithManifest(o.manifest))
	}
	lab, err := stms.New(opts...)
	if err != nil {
		return err
	}

	for _, u := range o.workers {
		c := dist.NewClient(u)
		ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
		h, err := c.Health(ctx)
		cancel()
		if err != nil {
			fmt.Fprintf(os.Stderr, "stms-serve: worker %s unreachable (%v); its cells will retry elsewhere or run locally\n", u, err)
			continue
		}
		fmt.Fprintf(os.Stderr, "stms-serve: worker %s: %q, %d cores, %d checkpoints held\n", u, h.Name, h.Cores, h.Ckpts)
	}

	planOpts := []stms.PlanOption{stms.WithLabels(labels...)}
	if o.mode == "functional" {
		planOpts = append(planOpts, stms.InMode(stms.Functional))
	} else if o.mode != "timed" {
		return fmt.Errorf("stms-serve: -mode %q is neither timed nor functional", o.mode)
	}
	plan := lab.Plan(o.workloads, prefs, planOpts...)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	start := time.Now()
	m, err := lab.Run(ctx, plan)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	if t, err := m.SpeedupTable(labels[0]); err == nil {
		fmt.Print(t)
	}
	rs := lab.RemoteStats()
	fmt.Fprintf(os.Stderr, "stms-serve: %d cells in %s: %d remote, %d local, %d retries (%d workers)\n",
		len(m.Cells), elapsed.Round(time.Millisecond), rs.RemoteCells, rs.LocalCells, rs.Retries, rs.Workers)
	if rs.BreakerTrips > 0 || rs.StallAborts > 0 || rs.BackoffWaits > 0 {
		fmt.Fprintf(os.Stderr, "stms-serve: resilience: %d breaker trips, %d stall aborts, %d backoff waits\n",
			rs.BreakerTrips, rs.StallAborts, rs.BackoffWaits)
	}
	if rs.CkptResumes > 0 || rs.CkptFetches > 0 {
		fmt.Fprintf(os.Stderr, "stms-serve: checkpoints: %d cells resumed mid-run, %d fetched over /ckpts, %d written (%d bytes), %s of resumed simulation\n",
			rs.CkptResumes, rs.CkptFetches, rs.CkptWrites, rs.CkptBytes, rs.ResumeWall.Round(time.Millisecond))
	}

	if o.jsonOut != "" {
		// Canonical export: per-cell wall time measures this machine and
		// this topology, not the simulated system — zero it so local and
		// remote exports of the same matrix are byte-identical.
		for i := range m.Cells {
			m.Cells[i].Wall = 0
		}
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := m.WriteJSON(f); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "stms-serve: wrote %s\n", o.jsonOut)
	}
	return nil
}

// parseVariants maps variant strings like "stms@p=0.125@d=8" to
// prefetcher specs, keeping the raw strings as column labels.
func parseVariants(vs []string) ([]stms.PrefSpec, []string, error) {
	if len(vs) == 0 {
		return nil, nil, fmt.Errorf("stms-serve: no variants given")
	}
	kinds := map[string]stms.Kind{
		"baseline": stms.None, "none": stms.None,
		"ideal": stms.Ideal, "stms": stms.STMS,
		"tse": stms.TSE, "ebcp": stms.EBCP,
		"ulmt": stms.ULMT, "markov": stms.Markov,
	}
	var prefs []stms.PrefSpec
	var labels []string
	for _, v := range vs {
		parts := strings.Split(v, "@")
		kind, ok := kinds[parts[0]]
		if !ok {
			return nil, nil, fmt.Errorf("stms-serve: unknown variant %q (want baseline|ideal|stms|tse|ebcp|ulmt|markov)", parts[0])
		}
		ps := stms.PrefSpec{Kind: kind}
		for _, p := range parts[1:] {
			k, val, ok := strings.Cut(p, "=")
			if !ok {
				return nil, nil, fmt.Errorf("stms-serve: variant parameter %q is not key=value", p)
			}
			switch k {
			case "p":
				f, err := strconv.ParseFloat(val, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("stms-serve: variant %q: %v", v, err)
				}
				ps.SampleProb = f
			case "d":
				n, err := strconv.Atoi(val)
				if err != nil {
					return nil, nil, fmt.Errorf("stms-serve: variant %q: %v", v, err)
				}
				ps.MaxDepth = n
			case "h":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("stms-serve: variant %q: %v", v, err)
				}
				ps.HistoryEntries = n
			case "i":
				n, err := strconv.ParseUint(val, 10, 64)
				if err != nil {
					return nil, nil, fmt.Errorf("stms-serve: variant %q: %v", v, err)
				}
				ps.IndexEntries = n
			default:
				return nil, nil, fmt.Errorf("stms-serve: variant %q: unknown parameter %q (want p, d, h or i)", v, k)
			}
		}
		prefs = append(prefs, ps)
		labels = append(labels, v)
	}
	return prefs, labels, nil
}
