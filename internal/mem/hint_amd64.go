package mem

import "unsafe"

// prefetch asks the host to bring the cache line holding p toward its L1
// (PREFETCHT0). It never faults and changes no memory.
//
//go:noescape
func prefetch(p unsafe.Pointer)
