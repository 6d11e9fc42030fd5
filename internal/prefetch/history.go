package prefetch

import "fmt"

// Log is one core's miss log: the blocks appended to the core's history
// buffer, in order, addressed by absolute position (total appends since
// start), so stale pointers are detected by arithmetic rather than by
// tombstones (§2, "history buffer ... typically a circular buffer"). It
// holds only the blocks; a History is a view over it that adds the
// capacity, the head and the stream-end marks.
//
// One log may back several views that record the same miss sequence in
// lockstep (the functional driver's variant groups, see LogSharer). The
// first view to append at the log's head writes the block, and the others
// check that they append the same one. In lockstep a view is at most one
// append behind the log, so the log keeps one slot more than the
// capacity its views serve: a lagging view's oldest live entry is never
// overwritten.
//
// Storage grows in fixed pages of historyPage entries, each allocated the
// first time an append reaches it: a log holds at most one page of slack
// and never copies an entry, however large its capacity (ghb's Unbounded
// is 2^34 entries).
type Log struct {
	slots uint64     // capacity of the views the log serves, plus one
	pages [][]uint64 // page i holds slots [i·historyPage, (i+1)·historyPage)
	head  uint64     // total entries appended
	slot  uint64     // slot the next append writes: head mod slots
	views int        // histories built over the log
}

// NewLog creates a log for histories of capEntries (> 0) entries.
func NewLog(capEntries uint64) *Log {
	if capEntries == 0 {
		panic("prefetch: history capacity must be positive")
	}
	return &Log{slots: capEntries + 1}
}

// history builds a view over the log. Views join before the first
// append, so they all start at position 0.
func (l *Log) history() *History {
	if l.head != 0 {
		panic("prefetch: history view joins a log that already holds entries")
	}
	l.views++
	return &History{log: l, cap: l.slots - 1}
}

// append writes blk at the log's head.
func (l *Log) append(blk uint64) {
	pg := l.slot >> historyPageShift
	if pg == uint64(len(l.pages)) {
		// Slots fill in order before the first wrap, so a missing page
		// is always the next one.
		l.pages = append(l.pages, make([]uint64, min(historyPage, l.slots-l.slot)))
	}
	l.pages[pg][l.slot&(historyPage-1)] = blk
	if l.slot++; l.slot == l.slots {
		l.slot = 0
	}
	l.head++
}

// slotOf maps a position still held by the log to its slot, counting
// back from the write slot instead of dividing.
func (l *Log) slotOf(pos uint64) uint64 {
	back := l.head - pos
	if back <= l.slot {
		return l.slot - back
	}
	return l.slot + l.slots - back
}

func (l *Log) at(slot uint64) *uint64 {
	return &l.pages[slot>>historyPageShift][slot&(historyPage-1)]
}

// History is one core's history buffer as one prefetcher sees it: a view
// over the core's Log with its own head, capacity and stream-end
// annotations (§4.5). A mark is a bit per log slot, kept in pages
// allocated the first time a mark lands in them, so views that share a
// log never see each other's marks. Only the snapshot encodes a mark in
// the entry's top bit (markBit).
type History struct {
	log   *Log
	cap   uint64
	head  uint64     // total entries this view appended
	marks [][]uint64 // end-mark bits by log slot; nil pages hold no mark
}

// markBit flags a marked entry in the snapshot encoding; block numbers
// generated by the simulator stay far below 2^63.
const markBit = uint64(1) << 63

// historyPage is the number of entries per storage page (32 KB).
const (
	historyPageShift = 12
	historyPage      = 1 << historyPageShift
)

// LogSharer is an optional Env extension, in the style of WarmRecorder,
// for drivers that run several prefetchers in lockstep over one miss
// sequence. HistoryLog returns core's log for histories of capEntries
// entries — the same Log to every backend of the group that asks with
// that capacity — or nil when the backend should keep a private log.
type LogSharer interface {
	HistoryLog(core int, capEntries uint64) *Log
}

// Histories builds one history of capEntries entries per core: views
// over env's shared logs when env is a LogSharer that offers them, over
// private logs otherwise.
func Histories(env Env, cores int, capEntries uint64) []*History {
	ls, _ := env.(LogSharer)
	hs := make([]*History, cores)
	for c := range hs {
		var l *Log
		if ls != nil {
			l = ls.HistoryLog(c, capEntries)
		}
		if l == nil {
			l = NewLog(capEntries)
		}
		hs[c] = l.history()
	}
	return hs
}

// Cap returns the capacity in entries.
func (h *History) Cap() uint64 { return h.cap }

// Head returns the absolute position the next append will take.
func (h *History) Head() uint64 { return h.head }

// Append logs blk and returns its absolute position. A view at the log's
// head writes the block; a view one append behind checks that the log
// already holds blk there, and panics if it does not: views that share a
// log must record identical sequences.
func (h *History) Append(blk uint64) uint64 {
	l, pos := h.log, h.head
	slot := l.slot
	if pos == l.head {
		l.append(blk)
	} else {
		slot = h.follow(blk)
	}
	if len(h.marks) != 0 {
		h.unmark(slot)
	}
	h.head++
	return pos
}

// follow is Append for a view behind its log: it returns the slot of
// the view's head after checking that the log holds blk there.
func (h *History) follow(blk uint64) uint64 {
	l, pos := h.log, h.head
	if l.head-pos != 1 {
		panic(fmt.Sprintf("prefetch: history view at position %d fell behind its shared log at %d", pos, l.head))
	}
	slot := l.slotOf(pos)
	if got := *l.at(slot); got != blk {
		panic(fmt.Sprintf("prefetch: history views diverged at position %d: appending block %#x, shared log holds %#x", pos, blk, got))
	}
	return slot
}

// Valid reports whether pos still addresses a live entry.
func (h *History) Valid(pos uint64) bool {
	return pos < h.head && h.head-pos <= h.cap
}

// marked reports the end-mark bit of a log slot.
func (h *History) marked(slot uint64) bool {
	pg := slot >> historyPageShift
	if pg >= uint64(len(h.marks)) || h.marks[pg] == nil {
		return false
	}
	i := slot & (historyPage - 1)
	return h.marks[pg][i>>6]>>(i&63)&1 != 0
}

// unmark clears a slot's end-mark bit as a new entry takes the slot.
func (h *History) unmark(slot uint64) {
	if pg := slot >> historyPageShift; pg < uint64(len(h.marks)) {
		if m := h.marks[pg]; m != nil {
			i := slot & (historyPage - 1)
			m[i>>6] &^= 1 << (i & 63)
		}
	}
}

// setMark sets a slot's end-mark bit, allocating its page on first use.
func (h *History) setMark(slot uint64) {
	pg := slot >> historyPageShift
	for uint64(len(h.marks)) <= pg {
		h.marks = append(h.marks, nil)
	}
	if h.marks[pg] == nil {
		h.marks[pg] = make([]uint64, historyPage/64)
	}
	i := slot & (historyPage - 1)
	h.marks[pg][i>>6] |= 1 << (i & 63)
}

// Get returns the entry at pos and its end-mark flag.
func (h *History) Get(pos uint64) (blk uint64, mark, ok bool) {
	if !h.Valid(pos) {
		return 0, false, false
	}
	slot := h.log.slotOf(pos)
	return *h.log.at(slot), h.marked(slot), true
}

// Mark sets the end-of-stream annotation on pos, reporting whether the
// position was live.
func (h *History) Mark(pos uint64) bool {
	if !h.Valid(pos) {
		return false
	}
	h.setMark(h.log.slotOf(pos))
	return true
}

// LineEntries is how many packed history entries share one 64-byte memory
// line (§4.2: "a single densely-packed history buffer write is performed
// for every twelve off-chip read misses"). The index table uses the same
// packing for its buckets.
const LineEntries = 12

// LineOf returns the line number containing pos.
func LineOf(pos uint64) uint64 { return pos / LineEntries }

// Line is a caller-owned scratch buffer for one line's worth of history
// entries — the unit ReadLine fills. A line never yields more than
// LineEntries addresses, so fixed arrays suffice and reads allocate
// nothing.
type Line struct {
	Addrs     [LineEntries]uint64
	Positions [LineEntries]uint64
}

// ReadLine collects consecutive live entries starting at pos into the
// caller's scratch line, stopping at (1) the end of pos's memory line,
// (2) max entries, (3) the history head, or (4) an end-mark — whichever
// comes first. It returns the number of delivered entries; if stopped by
// a mark, marked is true and markAddr is the annotated block (not
// delivered).
//
// This is the unit of history streaming: one HistoryRead memory access
// yields at most one line of addresses.
func (h *History) ReadLine(pos uint64, max int, out *Line) (n int, marked bool, markAddr uint64) {
	if max > LineEntries {
		max = LineEntries
	}
	if max <= 0 || !h.Valid(pos) {
		// A stale (wrapped) start has nothing usable.
		return 0, false, 0
	}
	// Every position from a live pos up to the head is live too.
	l := h.log
	lineEnd := (LineOf(pos) + 1) * LineEntries
	slot := l.slotOf(pos)
	for p := pos; p < lineEnd && p < h.head && n < max; p++ {
		e := *l.at(slot)
		if h.marked(slot) {
			return n, true, e
		}
		out.Addrs[n] = e
		out.Positions[n] = p
		n++
		if slot++; slot == l.slots {
			slot = 0
		}
	}
	return n, false, 0
}
