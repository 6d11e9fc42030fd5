package trace

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"strings"
	"testing"

	"stms/internal/mem"
)

// csInstr builds one 64-byte ChampSim instruction record.
type csInstr struct {
	ip       uint64
	isBranch uint8
	taken    uint8
	destRegs [2]uint8
	srcRegs  [4]uint8
	destMem  [2]uint64
	srcMem   [4]uint64
}

func (i csInstr) encode() []byte {
	b := make([]byte, champSimRecSize)
	binary.LittleEndian.PutUint64(b[0:], i.ip)
	b[8], b[9] = i.isBranch, i.taken
	b[10], b[11] = i.destRegs[0], i.destRegs[1]
	copy(b[12:16], i.srcRegs[:])
	for k, a := range i.destMem {
		binary.LittleEndian.PutUint64(b[16+8*k:], a)
	}
	for k, a := range i.srcMem {
		binary.LittleEndian.PutUint64(b[32+8*k:], a)
	}
	return b
}

func csTrace(instrs ...csInstr) []byte {
	var buf bytes.Buffer
	for _, i := range instrs {
		buf.Write(i.encode())
	}
	return buf.Bytes()
}

func TestChampSimImport(t *testing.T) {
	data := csTrace(
		// Two compute instructions, then a load of two sibling addresses.
		csInstr{ip: 0x1000},
		csInstr{ip: 0x1004, isBranch: 1, taken: 1},
		csInstr{ip: 0x1008, destRegs: [2]uint8{7, 0}, srcMem: [4]uint64{0x4000, 0x4040}},
		// A dependent load: source register 7 was the previous load's dest.
		csInstr{ip: 0x100c, srcRegs: [4]uint8{7}, srcMem: [4]uint64{0x8000}},
		// An independent load after one compute instruction.
		csInstr{ip: 0x1010},
		csInstr{ip: 0x1014, srcRegs: [4]uint8{3}, srcMem: [4]uint64{0xc080}},
	)
	rd, err := NewChampSimReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	recs := take(t, rd, 100, FrameCap)
	if err := rd.Err(); err != nil {
		t.Fatal(err)
	}
	if rd.Instructions() != 6 || rd.Records() != 4 {
		t.Fatalf("consumed %d instrs -> %d records, want 6 -> 4", rd.Instructions(), rd.Records())
	}
	wantBlocks := []uint64{0x4000 >> mem.BlockShift, 0x4040 >> mem.BlockShift, 0x8000 >> mem.BlockShift, 0xc080 >> mem.BlockShift}
	wantInstrs := []uint32{3, 1, 1, 2} // gap to first load; sibling floor; back-to-back; one compute between
	wantDeps := []bool{false, false, true, false}
	for i, rec := range recs {
		if rec.Block != wantBlocks[i] {
			t.Errorf("record %d: block %#x, want %#x", i, rec.Block, wantBlocks[i])
		}
		if rec.Instrs != wantInstrs[i] {
			t.Errorf("record %d: instrs %d, want %d", i, rec.Instrs, wantInstrs[i])
		}
		if rec.Dep != wantDeps[i] {
			t.Errorf("record %d: dep %v, want %v", i, rec.Dep, wantDeps[i])
		}
	}
}

func TestChampSimGzip(t *testing.T) {
	data := csTrace(csInstr{ip: 0x2000, srcMem: [4]uint64{0x1_0000}})
	var gz bytes.Buffer
	w := gzip.NewWriter(&gz)
	if _, err := w.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rd, err := NewChampSimReader(bytes.NewReader(gz.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if r := take(t, rd, 2, 1); len(r) != 1 || r[0].Block != 0x1_0000>>mem.BlockShift {
		t.Fatalf("gzip decode: got %+v, err %v", r, rd.Err())
	}
	if rd.Err() != nil {
		t.Fatalf("want clean EOF, got err %v", rd.Err())
	}
}

func TestChampSimRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"zero-ip", csTrace(csInstr{srcMem: [4]uint64{0x40}}), "zero instruction pointer"},
		{"bad-flag", csTrace(csInstr{ip: 1, isBranch: 2}), "outside {0,1}"},
		{"taken-not-branch", csTrace(csInstr{ip: 1, taken: 1}), "branch_taken without is_branch"},
		{"truncated-tail", csTrace(csInstr{ip: 1}, csInstr{ip: 2})[:96], "truncated"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rd, err := NewChampSimReader(bytes.NewReader(tc.data))
			if err != nil {
				t.Fatal(err)
			}
			take(t, rd, 100, FrameCap)
			if err := rd.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("want error containing %q, got %v", tc.want, err)
			}
		})
	}
}

// TestChampSimThroughFrames drives the importer through the frame
// source the simulator uses: a malformed tail must surface through
// FrameSource.Err, never as a clean end of stream.
func TestChampSimThroughFrames(t *testing.T) {
	var instrs []csInstr
	for i := 0; i < 3000; i++ {
		instrs = append(instrs, csInstr{ip: 0x1000 + uint64(4*i), srcMem: [4]uint64{uint64(0x4000 + 64*i)}})
	}
	data := csTrace(instrs...)
	t.Run("clean", func(t *testing.T) {
		rd, err := NewChampSimReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		src := Frames(rd)
		defer src.Close()
		total := 0
		for f := src.NextFrame(); f != nil; f = src.NextFrame() {
			total += f.Len()
		}
		if err := src.Err(); err != nil {
			t.Fatal(err)
		}
		if total != len(instrs) {
			t.Fatalf("frames delivered %d records, want %d", total, len(instrs))
		}
	})
	t.Run("truncated", func(t *testing.T) {
		rd, err := NewChampSimReader(bytes.NewReader(data[:len(data)-13]))
		if err != nil {
			t.Fatal(err)
		}
		src := Frames(rd)
		defer src.Close()
		for f := src.NextFrame(); f != nil; f = src.NextFrame() {
		}
		if err := src.Err(); err == nil || !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation must surface through FrameSource.Err, got %v", err)
		}
	})
}
