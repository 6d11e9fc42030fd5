// distributed shards one run matrix across two stms-serve worker
// daemons and proves the central property of the distributed lab:
// remote execution changes where cells run, never what they produce.
//
// The walkthrough starts two in-process workers (the same
// stms.NewWorkerServer handler the stms-serve -worker binary mounts),
// each checkpointing its jobs as they run, sends a workload × variant
// matrix through the pool,
// and then byte-compares its canonical JSON export against a purely
// local run of the same plan. It finishes by demonstrating graceful
// degradation (a coordinator with no reachable workers still
// completes) and a resumable manifest (a restarted session skips every
// finished cell).
//
//	go run ./examples/distributed
package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"net/http/httptest"
	"os"
	"path/filepath"

	"stms"
)

func main() {
	// Two workers, each an ordinary http.Handler that generates its
	// jobs' traces live and checkpoints them every 16,000 records to a
	// store of its own. Real deployments run `stms-serve -worker` on
	// separate machines; httptest keeps the walkthrough self-contained.
	w1 := httptest.NewServer(stms.NewWorkerServer(stms.WorkerConfig{
		Name: "w1", CheckpointEvery: 16_000,
	}))
	defer w1.Close()
	w2 := httptest.NewServer(stms.NewWorkerServer(stms.WorkerConfig{
		Name: "w2", CheckpointEvery: 16_000,
	}))
	defer w2.Close()

	workloads := []string{"sci-em3d", "oltp-db2", "web-apache"}
	variants := []stms.PrefSpec{
		{Kind: stms.None},
		{Kind: stms.Ideal},
		{Kind: stms.STMS, SampleProb: 0.125},
	}
	smoke := []stms.Option{
		stms.WithScale(0.0625), stms.WithSeed(42), stms.WithWindows(4_000, 8_000),
	}

	// The coordinator is an ordinary Lab with WithWorkers: same Plan,
	// same Run, same Matrix — cells just execute elsewhere.
	coord, err := stms.New(append(smoke, stms.WithWorkers([]string{w1.URL, w2.URL}))...)
	if err != nil {
		log.Fatal(err)
	}
	remote, err := coord.Run(context.Background(), coord.Plan(workloads, variants))
	if err != nil {
		log.Fatal(err)
	}
	rs := coord.RemoteStats()
	fmt.Printf("dispatch: %d remote cells across %d workers, %d checkpoints written (%d bytes)\n",
		rs.RemoteCells, rs.Workers, rs.CkptWrites, rs.CkptBytes)

	// The same plan, in-process.
	local, err := stms.New(smoke...)
	if err != nil {
		log.Fatal(err)
	}
	lm, err := local.Run(context.Background(), local.Plan(workloads, variants))
	if err != nil {
		log.Fatal(err)
	}

	// Canonical exports (wall time zeroed — it measures the machine,
	// not the simulated system) are byte-identical.
	if !bytes.Equal(exportJSON(remote), exportJSON(lm)) {
		log.Fatal("remote and local matrices serialized differently")
	}
	fmt.Println("remote matrix is byte-identical to the in-process run")
	t, err := remote.SpeedupTable("baseline")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(t)

	// Graceful degradation: a pool of unreachable workers falls back to
	// local execution, cell by cell, and still produces the same bits.
	deaf, err := stms.New(append(smoke, stms.WithWorkers([]string{"http://127.0.0.1:1"}))...)
	if err != nil {
		log.Fatal(err)
	}
	dm, err := deaf.Run(context.Background(), deaf.Plan(workloads[:1], variants))
	if err != nil {
		log.Fatal(err)
	}
	ds := deaf.RemoteStats()
	fmt.Printf("degraded: %d cells fell back to local execution (still %d results)\n",
		ds.LocalCells, len(dm.Cells))

	// Resumability: a manifest records finished cells; a second session
	// over the same file preloads them and simulates only what's left.
	manifest := filepath.Join(os.TempDir(), "stms-example.manifest")
	defer os.Remove(manifest)
	first, err := stms.New(append(smoke, stms.WithManifest(manifest))...)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := first.Run(context.Background(), first.Plan(workloads[:2], variants)); err != nil {
		log.Fatal(err)
	}
	simulated := 0
	resumed, err := stms.New(append(smoke,
		stms.WithManifest(manifest),
		stms.WithProgress(func(ev stms.ResultEvent) {
			if ev.Kind == stms.CellStarted {
				simulated++
			}
		}))...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resume: %d finished cells preloaded from the manifest\n", resumed.MemoSize())
	if _, err := resumed.Run(context.Background(), resumed.Plan(workloads, variants)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("resume: full plan simulated only %d of %d cells\n",
		simulated, len(workloads)*len(variants))
}

// exportJSON renders a matrix canonically: per-cell wall time zeroed.
func exportJSON(m *stms.Matrix) []byte {
	for i := range m.Cells {
		m.Cells[i].Wall = 0
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		log.Fatal(err)
	}
	return buf.Bytes()
}
