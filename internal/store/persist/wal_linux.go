package persist

import (
	"os"
	"syscall"
)

// allocateFile extends f to off+n with fallocate, so the blocks and the
// new length reach the journal now rather than with the sync of the
// commit that first writes them.
func allocateFile(f *os.File, off, n int64) error {
	for {
		err := syscall.Fallocate(int(f.Fd()), 0, off, n)
		if err != syscall.EINTR {
			return err
		}
	}
}

// datasync is fdatasync: f's data and what reading it back needs, and
// not the timestamps a full fsync would also journal.
func datasync(f *os.File) error {
	for {
		err := syscall.Fdatasync(int(f.Fd()))
		if err == nil {
			return nil
		}
		if err != syscall.EINTR {
			return &os.PathError{Op: "fdatasync", Path: f.Name(), Err: err}
		}
	}
}
