package trace

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"
)

// The STMSTAPE byte contract: SHA-256 digests of WriteTape output for
// every workload at two seeds, one tape per built-in scenario, and both
// encoder fallbacks (PC-dictionary overflow and cost-pair escape). Any
// change to how a tape is built, encoded or serialized that alters a
// single byte fails here; the digests are only ever re-recorded with a
// deliberate format change.
const (
	goldenScale   = 0.125
	goldenCores   = 4
	goldenPerCore = 20_000
)

var goldenTapeDigests = map[string]string{
	"dss-qry17/seed42":           "403fc1e6e41c20f13b8f13ce6ed3e8a90d83f8b70d4a3d33f5a94e5ad80d06a0",
	"dss-qry17/seed7":            "4122d76981eafbedf12e64d75ecae01670aa96bc1fb7e5742c90f5e738779020",
	"dss-qry2/seed42":            "3bd097a96fa14ec9bc45ba8b344e1287902c1f866f0080b12b7e7cbc33b51d9a",
	"dss-qry2/seed7":             "b4a253b9ed2bb968d31893f87f643e9b4502d96f0ef13f10d6bec434e6685a6e",
	"fallback/cost-escape":       "cb8e2ca61d31d3d15873b1fe66c33575f8c5104a91dd7b546886b256d33e22d2",
	"fallback/pc-overflow":       "bcba9e9df74b98e34aaca35c57aa8854eb789fa4782fcf2969a15d83c632bfa5",
	"oltp-db2/seed42":            "d4476135631da93b015bcaad7caed0c295049a1525148df919f0a7cb32d2364d",
	"oltp-db2/seed7":             "0160553949521600d30134fc9045534dae1ebcf2214ae24f7229f096b73f5eea",
	"oltp-oracle/seed42":         "636903d244edd5e63c6934f96a6a69593583fb8425ff27880e769a800ea95435",
	"oltp-oracle/seed7":          "2b864928a30bb69a64e336c7cd01967587242a6e289783f050b5eb9f04ed0e89",
	"scenario/migratory-handoff": "4948306ac8f28c199d4069615b9de38d9515e52df6db4f5ecde5961a2f80ac9f",
	"scenario/mix-commercial":    "eb23d07877624070dbd7b3ace65ba7a8973faf88233e53fa5ac68d0405d3f244",
	"scenario/oltp-antagonist":   "8d85d5b3f667b3dea03103fab22171c8b8129a33440c509f9c7304db407faf83",
	"scenario/phase-flip":        "b50f1dd32e644e5b9d98ee2abebe18781c10daf09f5a5629f1ce3bcb78cbdb2a",
	"scenario/reshuffle":         "5669f738d92a8938bcceb433f464089590afdbe9fa43b4d8c1cb2dc7e015446f",
	"scenario/scan-storm":        "6e1815a79d208c6b89d138f4460b8f64b86d700f3c0e23c08a09d607e3f47e08",
	"scenario/sci-handoff":       "4f16208e4bc58d0bdb68e3a14e74cbe1c2fbdb4eb85a5fcd095c1373e1eb2b2f",
	"scenario/stream-decay":      "704bc5e4081ff50a471ceaf15f5c22fa1296d55475a9b295d27cf1450eca6473",
	"scenario/web-drift":         "87d63738f90d1dc42eb46e4baaaec43493b4b8e46bc0eb450a0556518782947b",
	"sci-em3d/seed42":            "3801850457d4727d9057c2f877345f1f62e9dc63663d1b85e699199a2312e188",
	"sci-em3d/seed7":             "c9bca2e7587ea22747cb978d34a5af53244e91793f90f957c8a7a3d6e505b880",
	"sci-moldyn/seed42":          "fddd1f775730b85d64147ee1e76c98af67e43c28c67510460ee220acb7b35450",
	"sci-moldyn/seed7":           "09e46e982208dfc429e39808b112292dbf77cddc35bf1420cde73c5540508975",
	"sci-ocean/seed42":           "f155d847e80c819ab7eae2f23082db4c624ad8fc5789cdb8f31a42b5f9375590",
	"sci-ocean/seed7":            "0cd2fafdfe870ab1cf6283d012cb4501c6f8799b83db7e7f5ba8cabd7ef59583",
	"web-apache/seed42":          "476a861ba684a1210a9df13d3cb78e150d3cd43be6b273fa9a2f8fea679edca5",
	"web-apache/seed7":           "732b0402d1b1f35ad157fe1f0cf9f605c93012b77c745fc5dc23f4ab30f27cd3",
	"web-zeus/seed42":            "9c3629ccdc6ffb368874fbb35a13ab5647fd3d0d3203beb68a6057a299f8596c",
	"web-zeus/seed7":             "e1158d00727606a838a0da810dc163bf5bca299d2a49119af43251ccb3a809f4",
}

// goldenTapes returns every golden case by name, built lazily so a
// failing case reports its own name.
func goldenTapes() map[string]func() *Tape {
	cases := map[string]func() *Tape{}
	for _, name := range Names() {
		for _, seed := range []uint64{7, 42} {
			name, seed := name, seed
			cases[fmt.Sprintf("%s/seed%d", name, seed)] = func() *Tape {
				spec, err := ByName(name)
				if err != nil {
					panic(err)
				}
				return NewTape(spec.Scaled(goldenScale), seed, goldenCores, goldenPerCore)
			}
		}
	}
	for _, scn := range Scenarios() {
		scn := scn
		cases["scenario/"+scn.Name] = func() *Tape {
			return NewScenarioTape(scn.Scaled(goldenScale), 42, goldenCores, goldenPerCore)
		}
	}
	cases["fallback/pc-overflow"] = func() *Tape { return recordTape(pcOverflowRecords()) }
	cases["fallback/cost-escape"] = func() *Tape { return recordTape(costEscapeRecords()) }
	return cases
}

// recordTape wraps a single segment encoded from recs in a one-core
// tape whose budget the segment fills exactly.
func recordTape(recs []Record) *Tape {
	n := uint64(len(recs))
	col := encodeSegment(&SliceGenerator{Records: recs}, n)
	return &Tape{seed: 1, perCore: n, cores: []tapeColumns{col}, bytes: col.footprint()}
}

// pcOverflowRecords carries 700 distinct PCs, overflowing the 256-entry
// PC dictionary into the raw column.
func pcOverflowRecords() []Record {
	recs := make([]Record, 2000)
	for i := range recs {
		recs[i] = Record{
			PC: uint32(i % 700), Block: uint64(i) * 37 % 1024,
			Dep: i%3 == 0, Instrs: uint32(i%90 + 1), Work: uint32(i%50 + 1),
		}
	}
	return recs
}

// costEscapeRecords carries 600 distinct (Instrs, Work) pairs, more than
// the 255-entry pair dictionary holds, interleaved with one constant
// pair the way compute and memory records alternate; large values make
// the escaped uvarints multi-byte.
func costEscapeRecords() []Record {
	recs := make([]Record, 3000)
	for i := range recs {
		r := Record{PC: 0x40 + uint32(i%5), Block: uint64(i) * 977, Dep: i%7 == 0, Instrs: 8, Work: 3}
		if i%2 == 0 {
			k := uint32(i/2) % 600
			r.Instrs = 100 + k*1000
			r.Work = 1 + k*k
		}
		recs[i] = r
	}
	return recs
}

func tapeDigest(t *testing.T, tape *Tape) string {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteTape(&buf, tape); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestTapeBytesGolden(t *testing.T) {
	cases := goldenTapes()
	if len(cases) != len(goldenTapeDigests) {
		t.Errorf("%d golden cases, %d recorded digests", len(cases), len(goldenTapeDigests))
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			got := tapeDigest(t, build())
			if want := goldenTapeDigests[name]; got != want {
				t.Fatalf("WriteTape digest %s, want %s", got, want)
			}
		})
	}
}
