package main

import (
	"os"
	"runtime/debug"
	"runtime/metrics"
)

// A boot's fold keeps most of what it allocates: the payload copies, the
// entries and the path index of the tree it rebuilds. A collection cycle
// during it marks a growing prefix of that tree and frees little, so
// holdGC switches the collector off for the fold and lets one cycle after
// it mark the final tree. The heap stays bounded: the memory limit is
// set to the memory in use, plus bootHeapPerDiskByte per byte of the
// files the boot is about to read, plus bootHeapSlack. A fold that
// allocates more than that (a big log of short-lived records) collects
// as it would have. The fold's live heap stays under the limit, so the
// limit never makes the collector run back to back (DESIGN §6 has the
// measured ratios). A lower limit already in force (GOMEMLIMIT) is
// kept.
const (
	bootHeapPerDiskByte = 2
	bootHeapSlack       = 32 << 20
)

// holdGC holds the collector off while the data directory dir is
// recovered and returns the function that restores the collector's
// settings. It reads only the sizes of dir's files.
func holdGC(dir string) (release func()) {
	var disk int64
	files, _ := os.ReadDir(dir)
	for _, f := range files {
		if info, err := f.Info(); err == nil && info.Mode().IsRegular() {
			disk += info.Size()
		}
	}
	limit := memoryInUse() + bootHeapPerDiskByte*disk + bootHeapSlack
	prevLimit := debug.SetMemoryLimit(-1)
	debug.SetMemoryLimit(min(limit, prevLimit))
	prevPercent := debug.SetGCPercent(-1)
	return func() {
		debug.SetGCPercent(prevPercent)
		debug.SetMemoryLimit(prevLimit)
	}
}

// memoryInUse is the runtime's memory the limit counts: everything it
// has mapped less the heap it has returned to the OS.
func memoryInUse() int64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64() - s[1].Value.Uint64())
}
