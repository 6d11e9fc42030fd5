package prefetch

// History is one core's history buffer: a circular log of retired miss
// addresses addressed by absolute position (total appends since start), so
// stale pointers are detected by arithmetic rather than by tombstones
// (§2, "history buffer ... typically a circular buffer").
//
// A stream-end annotation (§4.5) is a flag on an entry, stored here in the
// block number's top bit — block numbers generated by the simulator stay
// far below 2^63.
//
// Storage grows in fixed pages of historyPage entries, each allocated the
// first time an append reaches it: a history holds at most one page of
// slack and never copies an entry, however large its capacity (ghb's
// Unbounded is 2^34 entries).
type History struct {
	cap   uint64
	pages [][]uint64 // page i holds slots [i·historyPage, (i+1)·historyPage)
	head  uint64     // total entries appended
	slot  uint64     // slot the next append writes: head mod cap
}

const markBit = uint64(1) << 63

// historyPage is the number of entries per storage page (32 KB).
const (
	historyPageShift = 12
	historyPage      = 1 << historyPageShift
)

// NewHistory creates a history with capacity capEntries (> 0).
func NewHistory(capEntries uint64) *History {
	if capEntries == 0 {
		panic("prefetch: history capacity must be positive")
	}
	return &History{cap: capEntries}
}

// Cap returns the capacity in entries.
func (h *History) Cap() uint64 { return h.cap }

// Head returns the absolute position the next append will take.
func (h *History) Head() uint64 { return h.head }

// Append logs blk and returns its absolute position.
func (h *History) Append(blk uint64) uint64 {
	pg := h.slot >> historyPageShift
	if pg == uint64(len(h.pages)) {
		// Slots fill in order before the first wrap, so a missing page
		// is always the next one.
		h.pages = append(h.pages, make([]uint64, min(historyPage, h.cap-h.slot)))
	}
	h.pages[pg][h.slot&(historyPage-1)] = blk
	if h.slot++; h.slot == h.cap {
		h.slot = 0
	}
	pos := h.head
	h.head++
	return pos
}

// Valid reports whether pos still addresses a live entry.
func (h *History) Valid(pos uint64) bool {
	return pos < h.head && h.head-pos <= h.cap
}

// slotOf maps a valid position to its slot, counting back from the
// write slot instead of dividing.
func (h *History) slotOf(pos uint64) uint64 {
	back := h.head - pos
	if back <= h.slot {
		return h.slot - back
	}
	return h.slot + h.cap - back
}

func (h *History) at(slot uint64) *uint64 {
	return &h.pages[slot>>historyPageShift][slot&(historyPage-1)]
}

// Get returns the entry at pos and its end-mark flag.
func (h *History) Get(pos uint64) (blk uint64, mark, ok bool) {
	if !h.Valid(pos) {
		return 0, false, false
	}
	e := *h.at(h.slotOf(pos))
	return e &^ markBit, e&markBit != 0, true
}

// Mark sets the end-of-stream annotation on pos, reporting whether the
// position was live.
func (h *History) Mark(pos uint64) bool {
	if !h.Valid(pos) {
		return false
	}
	*h.at(h.slotOf(pos)) |= markBit
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
	lineEnd := (LineOf(pos) + 1) * LineEntries
	slot := h.slotOf(pos)
	for p := pos; p < lineEnd && p < h.head && n < max; p++ {
		e := *h.at(slot)
		if e&markBit != 0 {
			return n, true, e &^ markBit
		}
		out.Addrs[n] = e
		out.Positions[n] = p
		n++
		if slot++; slot == h.cap {
			slot = 0
		}
	}
	return n, false, 0
}
