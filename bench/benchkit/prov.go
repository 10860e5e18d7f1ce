package benchkit

import (
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// Host is the fingerprint stamped on every output, so a number can be
// traced to the machine and the code that produced it.
type Host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
}

// Fingerprint describes this host and the checkout at root. Outside a
// git work tree (the driver's checkouts are plain directories) the sha
// reads "none".
func Fingerprint(root string) Host {
	h := Host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GitSHA:     "none",
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		h.Kernel = strings.TrimSpace(string(b))
	}
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return h
	}
	if sha, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		h.GitSHA = strings.TrimSpace(string(sha))
		status, _ := exec.Command("git", "-C", root, "status", "--porcelain").Output()
		h.GitDirty = len(status) > 0
	}
	return h
}
