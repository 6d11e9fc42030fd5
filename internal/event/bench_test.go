package event

import (
	"math/rand"
	"testing"
)

// simDelays mimics the timed simulator's delay distribution: mostly short
// transfer/hit latencies, a band of DRAM round-trips, a tail of core
// quanta, and the occasional long retry chain.
func simDelays(n int) []uint64 {
	rnd := rand.New(rand.NewSource(42))
	d := make([]uint64, n)
	for i := range d {
		switch rnd.Intn(10) {
		case 0, 1, 2, 3: // channel transfer slots
			d[i] = 9
		case 4, 5, 6: // DRAM access latency
			d[i] = 180
		case 7, 8: // core run-ahead quanta
			d[i] = uint64(rnd.Intn(256))
		default: // long tail
			d[i] = uint64(rnd.Intn(4096))
		}
	}
	return d
}

// fig8Delays draws delays in the proportions the timed fig8 matrix
// (8 workloads × baseline, ideal, STMS at scale 0.125, 80k+120k records
// per core) schedules them: of its 45M inserts, 29% at the 180-cycle
// DRAM access, 35% at 6–14-cycle transfer and hit latencies, and 11% at
// 1024 cycles or more, which wait in the overflow heap.
func fig8Delays(n int) []uint64 {
	rnd := rand.New(rand.NewSource(42))
	d := make([]uint64, n)
	for i := range d {
		switch p := rnd.Intn(100); {
		case p < 2:
			d[i] = 6
		case p < 17:
			d[i] = 8
		case p < 31:
			d[i] = 9
		case p < 35:
			d[i] = 14
		case p < 38:
			d[i] = 20
		case p < 40:
			d[i] = 26
		case p < 41:
			d[i] = 32 + uint64(rnd.Intn(224))
		case p < 70:
			d[i] = 180
		case p < 77:
			d[i] = 256 + uint64(rnd.Intn(256))
		case p < 89:
			d[i] = 512 + uint64(rnd.Intn(512))
		default:
			d[i] = 1024 + uint64(rnd.Intn(1024))
		}
	}
	return d
}

type nopHandler struct{}

func (nopHandler) Handle(uint64, uint8, uint64, uint64) {}

// BenchmarkCalendarScheduleDrain measures the calendar queue on the
// simulator's delay mix with pooled handler events (the hot-path
// configuration).
func BenchmarkCalendarScheduleDrain(b *testing.B) {
	delays := simDelays(1024)
	var h nopHandler
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ScheduleH(delays[i&1023], h, 0, 0, 0)
		if i&7 == 7 {
			for e.Step() {
			}
		}
	}
	e.Drain(nil)
}

// BenchmarkCalendarSteadyChurn keeps a realistic number of events in
// flight (hundreds, as in a 4-core timed run) and measures one
// schedule+fire cycle.
func BenchmarkCalendarSteadyChurn(b *testing.B) {
	delays := simDelays(1024)
	var h nopHandler
	e := NewEngine()
	for i := 0; i < 512; i++ {
		e.ScheduleH(delays[i], h, 0, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.ScheduleH(delays[i&1023], h, 0, 0, 0)
	}
	b.StopTimer()
	e.Drain(nil)
}

// BenchmarkCalendarFig8Churn is one schedule+fire cycle at the traffic
// the timed fig8 matrix puts on its engine: 9 events pending at each
// insert (the matrix averages 8.6) and fig8Delays' mix, so about one
// insert in nine goes through the overflow heap.
func BenchmarkCalendarFig8Churn(b *testing.B) {
	delays := fig8Delays(1024)
	var h nopHandler
	e := NewEngine()
	for i := 0; i < 10; i++ {
		e.ScheduleH(delays[i], h, 0, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.ScheduleH(delays[i&1023], h, 0, 0, 0)
	}
	b.StopTimer()
	e.Drain(nil)
}

// BenchmarkRefHeapScheduleDrain is the pre-calendar binary heap with
// per-event closures, kept as the comparison baseline.
func BenchmarkRefHeapScheduleDrain(b *testing.B) {
	delays := simDelays(1024)
	e := newRefEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(delays[i&1023], fn)
		if i&7 == 7 {
			for e.Step() {
			}
		}
	}
	e.Drain(nil)
}

// BenchmarkRefHeapSteadyChurn is the reference heap under the steady-state
// load of BenchmarkCalendarSteadyChurn.
func BenchmarkRefHeapSteadyChurn(b *testing.B) {
	delays := simDelays(1024)
	e := newRefEngine()
	fn := func() {}
	for i := 0; i < 512; i++ {
		e.Schedule(delays[i], fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
		e.Schedule(delays[i&1023], fn)
	}
	b.StopTimer()
	e.Drain(nil)
}
