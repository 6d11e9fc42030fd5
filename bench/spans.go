package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart is the origin of every offset the benchmark records.
var processStart = time.Now()

// clock is the time elapsed since the process started.
func clock() time.Duration { return time.Since(processStart) }

// span is one traced interval, recorded by the benchmark around a call
// into one layer of the simulator. Parent is the enclosing span's ID
// (0 for a root); times are nanoseconds from the start of the process.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) interval() interval {
	return interval{time.Duration(s.StartNS), time.Duration(s.EndNS)}
}

// tracer keeps a run's spans in memory until the run ends. Spans are
// added from the benchmark's own goroutine only. A nil tracer records
// nothing, which is how untraced runs run.
type tracer struct {
	workload string
	spans    []span
	cost     time.Duration // spent in add and end: what tracing adds to a run
}

// add records a span over iv and returns its ID.
func (t *tracer) add(parent int, name string, iv interval) int {
	if t == nil {
		return 0
	}
	t0 := time.Now()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Workload: t.workload,
		StartNS: int64(iv.start), EndNS: int64(iv.end)})
	t.cost += time.Since(t0)
	return id
}

// begin opens a span now; end closes it.
func (t *tracer) begin(parent int, name string) int {
	now := clock()
	return t.add(parent, name, interval{now, now})
}

func (t *tracer) end(id int) {
	if t != nil && id > 0 {
		t0 := time.Now()
		t.spans[id-1].EndNS = int64(clock())
		t.cost += time.Since(t0)
	}
}

// overheadFrac is the time spent recording spans as a share of the time
// the root spans cover. No timing the benchmark reports has this
// bookkeeping inside it (a repetition's spans are added after its wall
// is read, a replay times itself within its span), so this is all that
// tracing adds to a traced run.
func (t *tracer) overheadFrac() float64 {
	var roots []interval
	for _, s := range t.spans {
		if s.Parent == 0 {
			roots = append(roots, s.interval())
		}
	}
	all := interval{0, time.Duration(math.MaxInt64)}
	return ratio(t.cost.Seconds(), covered(all, roots).Seconds())
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// byName totals duration and self time (duration minus the union of the
// span's children) per span name, longest total first.
func (t *tracer) byName() []spanStat {
	children := make(map[int][]interval)
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	idx := make(map[string]int)
	var out []spanStat
	for _, s := range t.spans {
		i, ok := idx[s.Name]
		if !ok {
			i = len(out)
			idx[s.Name] = i
			out = append(out, spanStat{Name: s.Name})
		}
		iv := s.interval()
		out[i].Count++
		out[i].TotalS += (iv.end - iv.start).Seconds()
		out[i].SelfS += selfTime(iv, children[s.ID]).Seconds()
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TotalS > out[j].TotalS })
	return out
}

// write stores the spans as a JSON array at path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
