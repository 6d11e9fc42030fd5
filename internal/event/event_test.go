package event

import (
	"testing"
	"testing/quick"
)

func TestOrdering(t *testing.T) {
	e := calendar{NewEngine()}
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Drain(nil)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("wrong order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("Now() = %d, want 30", e.Now())
	}
}

func TestFIFOAtSameTime(t *testing.T) {
	e := calendar{NewEngine()}
	var got []int
	for i := 0; i < 100; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	e.Drain(nil)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of scheduling order: %v", got)
		}
	}
}

func TestPastEventsClampToNow(t *testing.T) {
	e := calendar{NewEngine()}
	e.Schedule(100, func() {})
	e.Step()
	fired := uint64(0)
	e.At(50, func() { fired = e.Now() })
	e.Step()
	if fired != 100 {
		t.Fatalf("past event fired at %d, want clamped to 100", fired)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := calendar{NewEngine()}
	var times []uint64
	e.Schedule(10, func() {
		times = append(times, e.Now())
		e.Schedule(5, func() {
			times = append(times, e.Now())
		})
	})
	e.Drain(nil)
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested scheduling produced %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	e := calendar{NewEngine()}
	fired := 0
	e.Schedule(10, func() { fired++ })
	e.Schedule(20, func() { fired++ })
	e.Schedule(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("RunUntil(20) fired %d events, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("Now() = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", e.Pending())
	}
}

func TestDrainStop(t *testing.T) {
	e := calendar{NewEngine()}
	fired := 0
	for i := 0; i < 10; i++ {
		e.Schedule(uint64(i), func() { fired++ })
	}
	e.Drain(func() bool { return fired >= 5 })
	if fired != 5 {
		t.Fatalf("Drain with stop fired %d, want 5", fired)
	}
}

func TestStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty engine returned true")
	}
}

// TestHeapPropertyRandom drives the heap with random delays and checks
// global time monotonicity.
func TestHeapPropertyRandom(t *testing.T) {
	f := func(delays []uint16) bool {
		e := calendar{NewEngine()}
		var fireTimes []uint64
		for _, d := range delays {
			e.Schedule(uint64(d), func() { fireTimes = append(fireTimes, e.Now()) })
		}
		e.Drain(nil)
		if len(fireTimes) != len(delays) {
			return false
		}
		for i := 1; i < len(fireTimes); i++ {
			if fireTimes[i] < fireTimes[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []uint64 {
		e := calendar{NewEngine()}
		var out []uint64
		var rec func(depth int)
		rec = func(depth int) {
			out = append(out, e.Now())
			if depth < 4 {
				e.Schedule(uint64(depth*3), func() { rec(depth + 1) })
				e.Schedule(uint64(depth*7), func() { rec(depth + 1) })
			}
		}
		e.Schedule(1, func() { rec(0) })
		e.Drain(nil)
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("non-deterministic event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}
