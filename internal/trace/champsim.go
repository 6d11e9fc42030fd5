package trace

// ChampSim trace importer: reads the fixed 64-byte instruction records
// ChampSim's tracer emits (optionally gzip-compressed) and converts the
// load stream into this package's Record model, making externally
// captured traces first-class workloads alongside the synthetic
// generators.
//
// One ChampSim record is one retired instruction:
//
//	offset size field
//	0      8    instruction pointer
//	8      1    is_branch (0 or 1)
//	9      1    branch_taken (0 or 1)
//	10     2    destination registers
//	12     4    source registers
//	16     16   destination memory addresses (2 × u64, 0 = unused)
//	32     32   source memory addresses (4 × u64, 0 = unused)
//
// Each non-zero source-memory address becomes one load Record: Block is
// the 64-byte block number, PC folds the 64-bit ip into the 32-bit PC
// space, Instrs counts the instructions retired since the previous load
// (saturating at 2^32-1 across extreme compute gaps), Work charges one
// dispatch cycle per instruction, and Dep marks loads whose source
// registers include a register written by the immediately preceding
// load instruction — the observable fragment of pointer chasing.
// Destination (store) addresses are skipped: the simulator is a
// load-driven MLP model, and stores enter it only through the dirty-fill
// writeback fraction.
//
// Validation is strict, the importer being an untrusted-input surface:
// flag bytes must be exactly 0 or 1, branch_taken requires is_branch, a
// zero instruction pointer is rejected, and a trailing partial record is
// an error, not a silent truncation. The reader implements Generator
// and ErrReporter, so a malformed tail surfaces through FrameSource.Err
// instead of presenting as a clean end of stream.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"math"

	"stms/internal/mem"
)

// champSimRecSize is the on-disk size of one ChampSim instruction.
const champSimRecSize = 64

// champSimSrcMem is how many source-memory slots each record carries.
const champSimSrcMem = 4

// ChampSimReader converts a ChampSim instruction trace into a load
// Record stream. It implements Generator and ErrReporter.
type ChampSimReader struct {
	r   *bufio.Reader
	err error

	// pending holds the loads decoded from the current instruction that
	// ReadFrame has not yet handed out (an instruction can carry up to four).
	pending [champSimSrcMem]Record
	npend   int
	ppos    int

	instrs   uint64 // instructions consumed so far
	lastEmit uint64 // instruction count at the previous emitted load
	records  uint64 // loads emitted

	// prevLoadDests are the destination registers of the most recent
	// load instruction, for the address-dependence approximation.
	prevLoadDests [2]uint8
	havePrevLoad  bool

	buf [champSimRecSize]byte
}

// NewChampSimReader wraps r, transparently decompressing gzip input
// (ChampSim traces normally travel as .trace.gz). The returned reader
// streams; it holds no more than one instruction of state.
func NewChampSimReader(r io.Reader) (*ChampSimReader, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	if magic, err := br.Peek(2); err == nil && magic[0] == 0x1f && magic[1] == 0x8b {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: champsim gzip: %w", err)
		}
		br = bufio.NewReaderSize(gz, 1<<16)
	}
	return &ChampSimReader{r: br}, nil
}

// Err returns the first validation or I/O error, nil after a clean EOF.
func (c *ChampSimReader) Err() error { return c.err }

// Instructions returns how many trace instructions have been consumed.
func (c *ChampSimReader) Instructions() uint64 { return c.instrs }

// Records returns how many load records have been emitted.
func (c *ChampSimReader) Records() uint64 { return c.records }

// ReadFrame decodes instructions until the frame is full of their
// loads or the trace ends. An instruction's loads that do not fit wait
// in pending for the next frame.
func (c *ChampSimReader) ReadFrame(f *Frame) int {
	n := 0
	for n < f.cap {
		if c.ppos == c.npend {
			if c.err != nil || !c.decodeInstr() {
				break
			}
			continue
		}
		r := &c.pending[c.ppos]
		f.Block[n], f.PC[n], f.Instrs[n], f.Work[n], f.Dep[n] = r.Block, r.PC, r.Instrs, r.Work, r.Dep
		c.ppos++
		c.records++
		n++
	}
	f.n = n
	return n
}

// decodeInstr reads and validates one instruction, queueing its loads
// into pending. Returns false on EOF or error.
func (c *ChampSimReader) decodeInstr() bool {
	n, err := io.ReadFull(c.r, c.buf[:])
	if err == io.EOF {
		return false
	}
	if err != nil {
		c.err = fmt.Errorf("trace: champsim record %d: truncated (%d of %d bytes): %w",
			c.instrs, n, champSimRecSize, err)
		return false
	}
	b := &c.buf
	ip := leU64(b[0:])
	isBranch, taken := b[8], b[9]
	switch {
	case ip == 0:
		c.err = fmt.Errorf("trace: champsim record %d: zero instruction pointer", c.instrs)
		return false
	case isBranch > 1 || taken > 1:
		c.err = fmt.Errorf("trace: champsim record %d: flag bytes %d/%d outside {0,1}", c.instrs, isBranch, taken)
		return false
	case taken == 1 && isBranch == 0:
		c.err = fmt.Errorf("trace: champsim record %d: branch_taken without is_branch", c.instrs)
		return false
	}
	c.instrs++

	// Dep: does this instruction read a register the previous load wrote?
	dep := false
	if c.havePrevLoad {
		for i := 0; i < 4 && !dep; i++ {
			src := b[12+i]
			if src != 0 && (src == c.prevLoadDests[0] || src == c.prevLoadDests[1]) {
				dep = true
			}
		}
	}

	c.npend, c.ppos = 0, 0
	for i := 0; i < champSimSrcMem; i++ {
		addr := leU64(b[32+8*i:])
		if addr == 0 {
			continue
		}
		gap := c.instrs - c.lastEmit
		if gap > math.MaxUint32 {
			gap = math.MaxUint32 // saturate across extreme compute gaps
		}
		if gap == 0 {
			gap = 1 // siblings from one instruction still carry work
		}
		c.pending[c.npend] = Record{
			Block:  addr >> mem.BlockShift,
			PC:     uint32(ip) ^ uint32(ip>>32),
			Instrs: uint32(gap),
			Work:   uint32(gap), // one dispatch cycle per instruction
			Dep:    dep && c.npend == 0,
		}
		c.npend++
		c.lastEmit = c.instrs
	}
	if c.npend > 0 {
		c.prevLoadDests = [2]uint8{b[10], b[11]}
		c.havePrevLoad = true
	}
	return true
}

func leU64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}
