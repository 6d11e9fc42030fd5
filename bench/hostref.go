package main

import (
	"runtime/debug"
	"time"
)

// The host this benchmark runs on is shared, and its speed for this code
// drifts by a quarter or more over a minute or two, so a whole run can
// land in a fast or a slow stretch. The drift slows the simulator and a
// simulator-shaped kernel alike. The benchmark therefore times a fixed
// reference kernel between repetitions and reports its end-to-end times
// scaled to a host on which that kernel takes refNominal: each repetition
// is scaled by the mean of the kernel times just before and just after
// it. The kernel is the benchmark's own code, so no change to the
// simulator can change it.

// refNominal is about the reference kernel's median processor time on
// the host the README's numbers were measured on. It only sets the scale
// the normalized metrics read in; any constant would compare the same.
const refNominal = 300 * time.Millisecond

// refSink keeps the kernel's result live so the compiler cannot drop it.
var refSink uint64

// refRecords is the reference kernel's work.
const refRecords = 3_000_000

// runRef times the reference kernel on a collected heap. shrink divides
// its work, as it does the workloads'.
func runRef(shrink uint64) time.Duration {
	debug.FreeOSMemory()
	return hostRef(refRecords / int(shrink))
}

// hostRef runs the reference kernel over the given number of records and
// returns the processor time it took. The kernel is shaped like the
// simulator's inner loop: a pseudo-random record stream read in order,
// one lookup per record in a set-associative LRU table of 12 MB (beyond
// the host's L2, like the simulated caches and meta-data), and an event
// heap pushed and popped every few records. Its buffers are allocated
// afresh on every call, as a repetition's are.
func hostRef(records int) time.Duration {
	const (
		sets = 1 << 17
		ways = 8
	)
	c0 := cpuTime()
	stream := make([]uint64, 2<<20) // 16 MB
	x := uint64(99)
	for i := range stream {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		stream[i] = x
	}
	tags := make([]uint64, sets*ways)
	age := make([]uint32, sets*ways)
	heap := make([]uint64, 0, 512)
	var tick uint32
	hits := 0
	span := uint64(sets * ways * 2)
	for i := 0; i < records; i++ {
		r := stream[i&(len(stream)-1)]
		blk := r % span
		if r&3 == 0 {
			blk = uint64(i>>2) % 8192 // a hot region, as real streams have
		}
		s := int(blk%sets) * ways
		tick++
		victim, hit := s, false
		for w := s; w < s+ways; w++ {
			if tags[w] == blk+1 {
				age[w], hit = tick, true
				break
			}
			if age[w] < age[victim] {
				victim = w
			}
		}
		if hit {
			hits++
		} else {
			tags[victim], age[victim] = blk+1, tick
		}
		if i&3 == 0 {
			heap = heapPush(heap, uint64(i)+r%977)
			if len(heap) >= 256 {
				heap = heapPop(heap)
			}
		}
	}
	refSink += uint64(hits) + uint64(len(heap))
	return cpuTime() - c0
}

// heapPush adds v to the min-heap h.
func heapPush(h []uint64, v uint64) []uint64 {
	h = append(h, v)
	for j := len(h) - 1; j > 0; {
		p := (j - 1) / 2
		if h[p] <= h[j] {
			break
		}
		h[p], h[j] = h[j], h[p]
		j = p
	}
	return h
}

// heapPop removes the min-heap h's smallest element.
func heapPop(h []uint64) []uint64 {
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for j := 0; ; {
		l := 2*j + 1
		if l >= len(h) {
			break
		}
		if r := l + 1; r < len(h) && h[r] < h[l] {
			l = r
		}
		if h[j] <= h[l] {
			break
		}
		h[j], h[l] = h[l], h[j]
		j = l
	}
	return h
}
