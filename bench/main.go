// Command bench is the benchmark the STMS simulator's performance is
// judged by. One run measures one workload in its own process: an
// untimed warm-up repetition, then timed repetitions for --seconds, each
// on a fresh lab session so memoization hides no work. Every simulated
// result is checked against the golden outputs for the seed (or, without
// one, against the warm-up). The last line of standard output is one
// JSON object:
//
//	{"correct": true, "attempted": 96, "failed": 0, "metrics": {"norm_records_per_cpu_s": {"value": 1.6e6, "unit": "records/s"}, ...}}
//
// with the end-to-end metrics, or with --trace 1 the per-layer metrics of
// a traced run. A full report — the host record, every metric's median,
// quartiles and sample count, and for traced runs the layer budget and
// span summary — is written under .bench_build/, and a readable table to
// standard error.
//
// Usage, from the repository root (builds from source first):
//
//	sh bench/run.sh --workload fig8-timed --seed 42 --seconds 50 --trace 0
//
// or from this directory, `go run .` to run every workload in turn, each
// in a child process. See README.md for the workloads and metrics.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"text/tabwriter"
	"time"
)

// runBudget bounds one run, so a hung stream replay or a host far slower
// than expected fails the run instead of overrunning its slot.
const runBudget = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+" (default: each in turn, in child processes)")
	seed := fs.Uint64("seed", 42, "seed the workloads' traces are generated from")
	seconds := fs.Float64("seconds", 50, "how long the timed repetitions run")
	traceFlag := fs.Int("trace", 0, "1: a traced run reporting per-layer metrics; 0: end-to-end metrics")
	spansPath := fs.String("spans", "", "span file of a traced run (default .bench_build/spans-<workload>-seed<seed>.json)")
	update := fs.Bool("update-golden", false, "record this run's results as the golden outputs for the seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintf(stderr, "bench: --trace must be 0 or 1, got %d\n", *traceFlag)
		return 2
	}
	if *name == "" {
		return runAll(args, stdout, stderr)
	}
	w, err := newWorkload(*name, *seed, 1)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	// A run uses one processor: tape generation, the simulation and the
	// garbage collector take turns on it, so its times do not depend on
	// whether a shared host lends it a second one. With two, tape set-up
	// time spread by half its median across runs; with one, by a sixth.
	runtime.GOMAXPROCS(1)
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	p := params{seed: *seed, seconds: *seconds, traced: *traceFlag == 1, updateGolden: *update, shrink: 1}
	o, err := measure(ctx, w, p)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
		return 1
	}
	rep := newReport(o, p)
	for _, m := range rep.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(stderr, "bench: %s: metric %s is %v\n", w.name, m.Name, m.Value)
			return 1
		}
	}
	reportPath := filepath.Join(".bench_build", fmt.Sprintf("report-%s-seed%d-trace%d.json", w.name, *seed, *traceFlag))
	if err := writeJSON(reportPath, rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if p.traced {
		if *spansPath == "" {
			*spansPath = filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed))
		}
		if err := o.tr.write(*spansPath); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stderr, "spans: %s\n", *spansPath)
	}
	printReport(stderr, rep)
	fmt.Fprintf(stderr, "report: %s\n", reportPath)
	line, err := json.Marshal(rep.result())
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// runAll runs every workload in turn, each in a child process of this
// binary with the same flags, so each workload's peak memory is its own.
func runAll(args []string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, n := range workloadNames {
		cmd := exec.Command(exe, append([]string{"--workload", n}, args...)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			code = 1
		}
	}
	return code
}

// host records where a run was measured.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Revision   string `json:"revision"`
	Modified   bool   `json:"modified"`
	Seed       uint64 `json:"seed"`
}

func hostRecord(seed uint64) host {
	h := host{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version(),
		OS: runtime.GOOS, Arch: runtime.GOARCH, CPU: cpuModel(), Revision: "unknown", Seed: seed}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h.Revision = s.Value
			case "vcs.modified":
				h.Modified = s.Value == "true"
			}
		}
	}
	return h
}

// cpuModel is the first "model name" in /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// report is a run's full record.
type report struct {
	Host      host        `json:"host"`
	Workload  string      `json:"workload"`
	Why       string      `json:"why"`
	Seconds   float64     `json:"seconds"`
	Traced    bool        `json:"traced"`
	Reps      int         `json:"reps"`
	Reference string      `json:"reference"` // what every result was checked against
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Failures  []string    `json:"failures,omitempty"`
	Metrics   []metric    `json:"metrics"`
	PeakRSSMB float64     `json:"peak_rss_mb_max"`  // the largest peak resident set of the run
	RefKernel summary     `json:"ref_kernel_cpu_s"` // the reference kernel around each repetition, against refNominal
	CellTail  *tail       `json:"cell_tail,omitempty"`
	Budget    *budgetView `json:"budget,omitempty"`
	Spans     []spanStat  `json:"spans,omitempty"`
}

// tail is the highest percentile of the pooled cell times that still
// has ten samples beyond it.
type tail struct {
	Percentile float64 `json:"percentile"`
	Seconds    float64 `json:"s"`
	N          int     `json:"n"`
}

// budgetView is the layer budget as reported.
type budgetView struct {
	EndToEndNsPerRecord     float64     `json:"end_to_end_ns_per_record"`
	Rows                    []budgetRow `json:"rows"`
	UnattributedNsPerRecord float64     `json:"unattributed_ns_per_record"`
	ReplayLoad              replayLoad  `json:"replay_load"`
}

func newReport(o *outcome, p params) *report {
	r := &report{Host: hostRecord(p.seed), Workload: o.w.name, Why: o.w.why, Seconds: p.seconds,
		Traced: p.traced, Reps: len(o.reps), Reference: "the warm-up repetition",
		Attempted: o.attempted, Failed: o.failed, Failures: o.failures, PeakRSSMB: o.peakRSSMB(),
		RefKernel: summarize(o.perRep(func(r *rep) float64 { return r.ref.Seconds() }))}
	if o.golden {
		r.Reference = "the golden file"
	}
	cells := o.cellSeconds()
	if pct := tailPercentile(len(cells)); pct > 0 {
		r.CellTail = &tail{Percentile: pct, Seconds: quantile(cells, pct/100), N: len(cells)}
	}
	if !p.traced {
		r.Metrics = endToEnd(o)
		return r
	}
	r.Metrics = perLayer(o)
	e2e, rows := budget(o)
	r.Budget = &budgetView{EndToEndNsPerRecord: e2e, Rows: rows, UnattributedNsPerRecord: e2e - attributed(rows),
		ReplayLoad: o.replay.load}
	r.Spans = o.tr.byName()
	return r
}

// result is the run's last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *report) result() result {
	out := result{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range r.Metrics {
		out.Metrics[m.Name] = value{Value: m.Value, Unit: m.Unit}
	}
	return out
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// printReport writes the run as readable tables.
func printReport(w io.Writer, r *report) {
	fmt.Fprintf(w, "%s  seed %d  %d timed reps + 1 warm-up  checked against %s  attempted %d  failed %d\n",
		r.Workload, r.Host.Seed, r.Reps, r.Reference, r.Attempted, r.Failed)
	fmt.Fprintf(w, "host: %s, nproc %d, GOMAXPROCS %d, %s, revision %s\n",
		r.Host.CPU, r.Host.NProc, r.Host.GOMAXPROCS, r.Host.Go, r.Host.Revision)
	fmt.Fprintf(w, "reference kernel: median %.4f s (q1 %.4f, q3 %.4f) against %.4f s nominal\n",
		r.RefKernel.Median, r.RefKernel.Q1, r.RefKernel.Q3, refNominal.Seconds())
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "metric\tvalue\tunit\tq1\tq3\tn\t")
	for _, m := range r.Metrics {
		if m.Stats != nil {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t%.6g\t%.6g\t%d\t\n", m.Name, m.Value, m.Unit, m.Stats.Q1, m.Stats.Q3, m.Stats.N)
		} else {
			fmt.Fprintf(tw, "%s\t%.6g\t%s\t\t\t\t\n", m.Name, m.Value, m.Unit)
		}
	}
	tw.Flush()
	if t := r.CellTail; t != nil {
		fmt.Fprintf(w, "cell tail: p%g = %.6g s over %d cells\n", t.Percentile, t.Seconds, t.N)
	}
	if r.Budget != nil {
		fmt.Fprintf(w, "\nlayer budget: end-to-end %.1f ns/record (wall × concurrent ops ÷ records)\n", r.Budget.EndToEndNsPerRecord)
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "layer\tns/op\tops/record\tns/record\tshare\t")
		for _, b := range r.Budget.Rows {
			if b.Nested != "" {
				fmt.Fprintf(tw, "  %s (inside %s)\t%.1f\t\t\t\t\n", b.Layer, b.Nested, b.NsPerOp)
				continue
			}
			fmt.Fprintf(tw, "%s\t%.1f\t%.3f\t%.1f\t%.1f%%\t\n", b.Layer, b.NsPerOp, b.OpsPerRecord,
				b.nsPerRecord(), 100*b.nsPerRecord()/r.Budget.EndToEndNsPerRecord)
		}
		fmt.Fprintf(tw, "unattributed\t\t\t%.1f\t%.1f%%\t\n", r.Budget.UnattributedNsPerRecord,
			100*r.Budget.UnattributedNsPerRecord/r.Budget.EndToEndNsPerRecord)
		tw.Flush()
		l := r.Budget.ReplayLoad
		fmt.Fprintf(w, "replay load, from the timed STMS replay: DRAM utilization %.3f (replay reached %.3f), MLP %.2f → %d MSHR entries in flight, %d events pending\n",
			l.DRAMUtil, l.DRAMUtilReplay, l.MLP, l.MSHRInFlight, l.EventsPending)
		fmt.Fprintln(w, "\nspans (benchmark-side, around layer calls)")
		tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', tabwriter.AlignRight)
		fmt.Fprintln(tw, "span\tcount\ttotal s\tself s\t")
		for _, s := range r.Spans {
			fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\t\n", s.Name, s.Count, s.TotalS, s.SelfS)
		}
		tw.Flush()
	}
}
