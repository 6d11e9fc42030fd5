package ckpt

import (
	"bytes"
	"testing"
)

// FuzzCkptOpen feeds arbitrary bytes to the checkpoint container
// verifier: a corrupt checkpoint must be rejected with an error — never
// a panic, and never a silently accepted payload that differs from what
// Seal framed.
func FuzzCkptOpen(f *testing.F) {
	enc := NewEncoder()
	enc.Section("fuzz")
	enc.U64(42)
	enc.String("payload")
	sealed := Seal(enc.Payload())
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-3])
	corrupt := bytes.Clone(sealed)
	corrupt[len(corrupt)/2] ^= 0x04
	f.Add(corrupt)
	f.Add([]byte(Magic))
	f.Add(Seal(nil))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := Open(data)
		if err != nil {
			return
		}
		// Accepted containers must round-trip exactly.
		if !bytes.Equal(Seal(payload), data) {
			t.Fatalf("accepted container does not re-seal to itself")
		}
	})
}
