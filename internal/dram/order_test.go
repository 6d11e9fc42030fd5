package dram

// Cross-checks the time-based channel-occupancy controller against a
// reference implementation of the old always-evented design: every
// transfer scheduled an eager transfer-done event, whether or not
// anything was queued behind it. The two must deliver identical
// completion sequences — same data-ready times, same order — for any
// request pattern, including patterns that race requests against the
// exact cycle a transfer completes.

import (
	"fmt"
	"testing"

	"stms/internal/event"
	"stms/internal/rng"
)

// fnHandler adapts a func to event.Handler, so the test can schedule
// its request bursts as closures.
type fnHandler func()

func (f fnHandler) Handle(uint64, uint8, uint64, uint64) { f() }

// refController is the old eager-event controller, kept verbatim (minus
// the closure path) as the ordering oracle.
type refController struct {
	cfg  Config
	eng  *event.Engine
	hi   reqQueue
	lo   reqQueue
	busy bool
}

const refXferDone = 200 // private event kind

func (c *refController) Handle(now uint64, kind uint8, a, b uint64) {
	c.busy = false
	c.tryStart()
}

func (c *refController) idle() bool { return !c.busy && c.hi.n == 0 && c.lo.n == 0 }

func (c *refController) startXfer() {
	c.busy = true
	c.eng.ScheduleH(c.cfg.XferCycles, c, refXferDone, 0, 0)
}

func (c *refController) ReadH(class Class, hiPri bool, h event.Handler, kind uint8, a, b uint64) {
	if c.idle() {
		c.startXfer()
		c.eng.ScheduleH(c.cfg.LatencyCycles, h, kind, a, b)
		return
	}
	r := request{class: class, h: h, kind: kind, a: a, b: b, enqueued: c.eng.Now()}
	if hiPri {
		c.hi.push(r)
	} else {
		c.lo.push(r)
	}
	c.tryStart()
}

func (c *refController) Write(class Class, hiPri bool) {
	if c.idle() {
		c.startXfer()
		return
	}
	r := request{class: class, isWrite: true, enqueued: c.eng.Now()}
	if hiPri {
		c.hi.push(r)
	} else {
		c.lo.push(r)
	}
	c.tryStart()
}

func (c *refController) tryStart() {
	if c.busy {
		return
	}
	var r request
	switch {
	case c.hi.len() > 0:
		r = c.hi.pop()
	case c.lo.len() > 0:
		r = c.lo.pop()
	default:
		return
	}
	c.startXfer()
	if r.isWrite {
		return
	}
	c.eng.ScheduleH(c.cfg.LatencyCycles, r.h, r.kind, r.a, r.b)
}

// orderLog records delivery callbacks and re-issues follow-up traffic,
// mimicking a simulator whose next requests depend on completions.
type orderLog struct {
	eng    *event.Engine
	read   func(class Class, hiPri bool, h event.Handler, kind uint8, a, b uint64)
	write  func(class Class, hiPri bool)
	rnd    *rng.Rand
	events []string
	chain  int // remaining chained requests to issue from deliveries
}

func (l *orderLog) Handle(now uint64, kind uint8, a, b uint64) {
	l.events = append(l.events, fmt.Sprintf("t=%d k=%d a=%d", now, kind, a))
	if l.chain > 0 {
		l.chain--
		// Issue a dependent request from inside a delivery, sometimes at
		// the exact cycle another transfer completes.
		l.read(Class(a%3), l.rnd.Bool(0.5), l, kind+1, a+100, 0)
	}
}

func TestTimeBasedChannelMatchesEagerEventOrder(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		cfg := Config{LatencyCycles: 180, XferCycles: 9}
		if seed%3 == 0 {
			cfg = Config{LatencyCycles: 100, XferCycles: 10}
		}

		run := func(use func(eng *event.Engine, log *orderLog)) []string {
			eng := event.NewEngine()
			rnd := rng.New(seed)
			log := &orderLog{eng: eng, rnd: rnd, chain: 64}
			use(eng, log)
			// A deterministic burst pattern: clusters of reads/writes at
			// close-together times, including exact transfer-done cycles.
			at := uint64(0)
			for i := 0; i < 200; i++ {
				at += rnd.Uint64n(12) // often lands mid-transfer or at its end
				i := i
				eng.AtH(at, fnHandler(func() {
					switch {
					case i%7 == 3:
						log.write(Writeback, i%2 == 0)
					default:
						log.read(Class(i%3), i%2 == 0, log, uint8(i%16), uint64(i), 0)
					}
				}), 0, 0, 0)
			}
			eng.Drain(nil)
			return log.events
		}

		got := run(func(eng *event.Engine, log *orderLog) {
			c := New(eng, cfg)
			log.read = func(class Class, hiPri bool, h event.Handler, kind uint8, a, b uint64) {
				c.ReadH(class, hiPri, h, kind, a, b)
			}
			log.write = c.Write
		})
		want := run(func(eng *event.Engine, log *orderLog) {
			c := &refController{cfg: cfg, eng: eng}
			log.read = func(class Class, hiPri bool, h event.Handler, kind uint8, a, b uint64) {
				c.ReadH(class, hiPri, h, kind, a, b)
			}
			log.write = c.Write
		})

		if len(got) != len(want) {
			t.Fatalf("seed %d: %d deliveries vs reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: delivery %d = %q, reference %q", seed, i, got[i], want[i])
			}
		}
	}
}
