package trace

// Block-batched record plumbing: a Frame is a reusable structure-of-arrays
// batch of records, the only unit in which record sources are read.
// Filling a frame amortizes the Generator interface's virtual call over
// FrameCap records, lets the tape Cursor decode straight from its
// columns in one tight loop, and gives the drivers dense per-column
// slices to stream through their hot loops.
//
// Frame boundaries carry no semantics: a frame may span scenario phases
// (the scenario generator switches segment generators mid-frame with
// exact per-segment budgets), and the drivers keep windowing statistics
// per record, so results do not depend on frame capacity. A frame of
// capacity 1 reads a source one record at a time.
//
// On top of Generator.ReadFrame sits the one frame source, Frames:
// synchronous, with one owned buffer, filled on the consumer's goroutine
// (DESIGN.md §10 says why there is no pipelined producer).

// FrameCap is the default frame capacity in records. Large enough that
// per-frame bookkeeping (refill dispatch, the stream inlet's channel
// handoff) vanishes, small enough that a frame's columns (~21 KB at 21
// bytes/record) stay cache-resident against the simulator's own hot
// state while it streams through them.
const FrameCap = 1024

// Frame is a structure-of-arrays batch of records. The columns share one
// length (Cap); Len reports how many leading entries are valid after a
// fill. Frames are plain buffers: fillers overwrite, consumers read.
type Frame struct {
	Block  []uint64
	PC     []uint32
	Instrs []uint32
	Work   []uint32
	Dep    []bool

	n   int // valid records
	cap int // usable capacity (<= column length); Limit shrinks it mid-fill
}

// NewFrame returns an empty frame with the default capacity.
func NewFrame() *Frame { return NewFrameCap(FrameCap) }

// NewFrameCap returns an empty frame with capacity c records.
func NewFrameCap(c int) *Frame {
	if c <= 0 {
		panic("trace: frame capacity must be positive")
	}
	return &Frame{
		Block:  make([]uint64, c),
		PC:     make([]uint32, c),
		Instrs: make([]uint32, c),
		Work:   make([]uint32, c),
		Dep:    make([]bool, c),
		cap:    c,
	}
}

// Len returns the number of valid records from the last fill.
func (f *Frame) Len() int { return f.n }

// Cap returns the frame's usable capacity.
func (f *Frame) Cap() int { return f.cap }

// SetLen declares the first n records of the frame valid: the scatter
// path for decoders (the wire inlet) that fill the columns directly
// rather than through a Generator. n must not exceed Cap.
func (f *Frame) SetLen(n int) {
	if n < 0 || n > f.cap {
		panic("trace: frame SetLen outside capacity")
	}
	f.n = n
}

// Record copies record i into r (test and interop helper; the drivers
// read the columns directly).
func (f *Frame) Record(i int, r *Record) {
	r.Block = f.Block[i]
	r.PC = f.PC[i]
	r.Instrs = f.Instrs[i]
	r.Work = f.Work[i]
	r.Dep = f.Dep[i]
}

// window returns a view over f's columns covering [off, off+n): a
// sub-frame that fills in place. Views share backing arrays with f, so
// filling the view fills f; the caller accounts the combined length.
func (f *Frame) window(off, n int) Frame {
	return Frame{
		Block:  f.Block[off : off+n],
		PC:     f.PC[off : off+n],
		Instrs: f.Instrs[off : off+n],
		Work:   f.Work[off : off+n],
		Dep:    f.Dep[off : off+n],
		cap:    n,
	}
}

// FrameStats counts a frame source's consumed output.
type FrameStats struct {
	Frames  uint64 // frames handed to the consumer
	Records uint64 // records in those frames
}

// Add accumulates o into s.
func (s *FrameStats) Add(o FrameStats) {
	s.Frames += o.Frames
	s.Records += o.Records
}

// FrameSource hands out successive frames of a record stream. NextFrame
// returns a frame valid until the next NextFrame call, or nil when the
// stream is dry. Stats is consumer-side accounting of the frames handed
// out. Close releases what the source holds open — only sources backed
// by a connection, such as the stream inlet, hold anything; Frames'
// Close is a no-op. Close is safe to call more than once.
//
// Err distinguishes a clean end of stream from a dead producer: after
// NextFrame returns nil, a non-nil Err means the stream was cut short
// (I/O failure, truncated file, dropped connection) and the records are
// incomplete. Drivers must check it — a source that died mid-stream
// must fail the run, not quietly present as a short trace.
type FrameSource interface {
	NextFrame() *Frame
	Stats() FrameStats
	Err() error
	Close()
}

// ErrReporter is the optional failure channel of a Generator: sources
// that can die mid-stream (file readers, network inlets) expose the
// first error here, and Frames propagates it to FrameSource.Err.
// Generators without it are assumed infallible (synthetic generators,
// tape cursors).
type ErrReporter interface {
	Err() error
}

// genErr extracts the failure state of a generator, nil for generators
// that cannot fail.
func genErr(g Generator) error {
	if er, ok := g.(ErrReporter); ok {
		return er.Err()
	}
	return nil
}

// Frames returns a synchronous FrameSource over g with one owned buffer.
func Frames(g Generator) FrameSource { return &frameIter{g: g, f: NewFrame()} }

type frameIter struct {
	g     Generator
	f     *Frame
	stats FrameStats
}

func (it *frameIter) NextFrame() *Frame {
	if it.g.ReadFrame(it.f) == 0 {
		return nil
	}
	it.stats.Frames++
	it.stats.Records += uint64(it.f.n)
	return it.f
}

func (it *frameIter) Stats() FrameStats { return it.stats }

func (it *frameIter) Err() error { return genErr(it.g) }

func (it *frameIter) Close() {}
