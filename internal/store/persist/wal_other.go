//go:build !linux

package persist

import (
	"errors"
	"os"
)

// allocateFile is unsupported here: segments grow with each write.
func allocateFile(*os.File, int64, int64) error { return errors.ErrUnsupported }

// datasync is a full File.Sync here.
func datasync(f *os.File) error { return f.Sync() }
