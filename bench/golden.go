package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
)

// Golden outputs pin what every simulated result must be at a given
// seed: a canonical hash of each cell's full Results and the lab's JSON
// export of it. Regenerate with --update-golden; seeds without a file
// fall back to repetition-to-repetition identity.
//
//go:embed golden
var goldenFS embed.FS

type goldenFile struct {
	Seed      uint64                     `json:"seed"`
	Workloads map[string]*goldenWorkload `json:"workloads"`
}

type goldenWorkload struct {
	Cells []goldenCell `json:"cells"`
}

type goldenCell struct {
	Row     string         `json:"workload"`
	Variant string         `json:"variant"`
	Hash    string         `json:"hash"`
	Export  map[string]any `json:"export,omitempty"`
}

func (c goldenCell) key() string { return c.Row + "/" + c.Variant }

func goldenName(seed uint64) string { return fmt.Sprintf("seed%d.json", seed) }

// loadGolden returns the embedded golden outputs of a workload at seed,
// or nil when none were recorded.
func loadGolden(seed uint64, workload string) (*goldenWorkload, error) {
	b, err := goldenFS.ReadFile("golden/" + goldenName(seed))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("golden %s: %w", goldenName(seed), err)
	}
	return g.Workloads[workload], nil
}

// goldenDir is the golden directory in the benchmark's source tree, the
// one --update-golden rewrites.
func goldenDir() string {
	_, file, _, _ := runtime.Caller(0)
	return filepath.Join(filepath.Dir(file), "golden")
}

// storeGolden replaces one workload's section of the golden file for
// seed in the source tree, keeping the other workloads' sections.
func storeGolden(seed uint64, workload string, g *goldenWorkload) error {
	path := filepath.Join(goldenDir(), goldenName(seed))
	f := goldenFile{Seed: seed, Workloads: map[string]*goldenWorkload{}}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("golden %s: %w", path, err)
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return err
	}
	f.Workloads[workload] = g
	b, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
