//go:build !amd64

package mem

import "unsafe"

// prefetch is a no-op where no host prefetch instruction is wired up.
func prefetch(p unsafe.Pointer) {}
