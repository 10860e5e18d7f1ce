package main

import (
	"os"
	"path/filepath"
	"runtime/debug"
	"testing"
)

// TestHoldGC: while held, the collector is off and the memory limit is
// twice what the boot is about to read, plus the slack and the memory
// in use, or a lower limit already in force; release puts
// both settings back.
func TestHoldGC(t *testing.T) {
	dir := t.TempDir()
	const disk = 3 << 20
	if err := os.WriteFile(filepath.Join(dir, "wal-0000000000000001.log"), make([]byte, disk), 0o644); err != nil {
		t.Fatal(err)
	}
	prevLimit := debug.SetMemoryLimit(-1)
	prevPercent := debug.SetGCPercent(-1)
	debug.SetGCPercent(prevPercent)
	defer debug.SetMemoryLimit(prevLimit)

	release := holdGC(dir)
	limit := debug.SetMemoryLimit(-1)
	percent := debug.SetGCPercent(-1)
	release()
	if percent != -1 {
		t.Errorf("GC percent while held = %d, want -1 (off)", percent)
	}
	if lo, hi := int64(bootHeapPerDiskByte*disk+bootHeapSlack), int64(bootHeapPerDiskByte*disk+bootHeapSlack+1<<30); limit < lo || limit > hi {
		t.Errorf("memory limit while held = %d, want the in-use memory over %d", limit, lo)
	}
	if got := debug.SetMemoryLimit(-1); got != prevLimit {
		t.Errorf("memory limit after release = %d, want %d", got, prevLimit)
	}
	if got := debug.SetGCPercent(prevPercent); got != prevPercent {
		t.Errorf("GC percent after release = %d, want %d", got, prevPercent)
	}

	// A lower limit in force (GOMEMLIMIT) is kept.
	debug.SetMemoryLimit(1 << 20)
	release = holdGC(dir)
	limit = debug.SetMemoryLimit(-1)
	release()
	if limit != 1<<20 {
		t.Errorf("memory limit while held under a 1 MiB GOMEMLIMIT = %d, want %d", limit, 1<<20)
	}
	if got := debug.SetMemoryLimit(-1); got != 1<<20 {
		t.Errorf("memory limit after release = %d, want the 1 MiB in force before", got)
	}
}
