package main

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"ofmf/bench/benchkit"
)

// child is one process the run started. Every child is registered so
// that every exit path — success, a failed check, the watchdog, a signal
// — kills and reaps it; Pdeathsig covers the generator itself being
// SIGKILLed.
type child struct {
	name string
	cmd  *exec.Cmd
	addr string // host:port it listens on
	done chan struct{}
}

var (
	childMu  sync.Mutex
	children []*child
)

// spawnReq asks the spawner goroutine to start a command.
type spawnReq struct {
	cmd  *exec.Cmd
	done chan error
}

// spawner starts every child from one goroutine locked to its thread for
// the life of the process: Pdeathsig fires when the forking *thread*
// exits, and a locked goroutine that does timed network I/O pays a
// thread hand-off on every wake-up, so it cannot be the measuring one.
var spawner = func() chan spawnReq {
	reqs := make(chan spawnReq)
	go func() {
		runtime.LockOSThread()
		for r := range reqs {
			r.done <- r.cmd.Start()
		}
	}()
	return reqs
}()

// spawn starts bin with args, output discarded.
func spawn(name, addr, bin string, args ...string) (*child, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	req := spawnReq{cmd, make(chan error, 1)}
	spawner <- req
	if err := <-req.done; err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	c := &child{name: name, cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		close(c.done)
	}()
	childMu.Lock()
	children = append(children, c)
	childMu.Unlock()
	return c, nil
}

// kill sends SIGKILL and waits until the process has ended.
func (c *child) kill() {
	_ = c.cmd.Process.Kill()
	<-c.done
}

// stop asks for a graceful shutdown, then kills after two seconds.
func (c *child) stop() {
	_ = c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.done:
	case <-time.After(2 * time.Second):
		c.kill()
	}
}

func (c *child) pid() int { return c.cmd.Process.Pid }

func killAll() {
	childMu.Lock()
	defer childMu.Unlock()
	for _, c := range children {
		c.kill()
	}
}

// freeAddr picks a loopback port nobody listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// waitReady polls until GET path at the child answers 200, or the child
// exits, or the phase watchdog fires.
func (c *child) waitReady(path string) (*benchkit.Conn, error) {
	for {
		select {
		case <-c.done:
			return nil, fmt.Errorf("%s exited before it was ready", c.name)
		default:
		}
		conn, err := benchkit.Dial(c.addr)
		if err == nil {
			status, _, _, err := conn.Do("GET", conn.Request("GET", path, "", nil))
			if err == nil && status == 200 {
				return conn, nil
			}
			conn.Close()
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// cpuNanos is the on-CPU time of every thread of pid, from the
// scheduler's nanosecond accounting; utime+stime tick only every 10 ms,
// too coarse for the null server's share of a run.
func cpuNanos(pid int) (int64, error) {
	tasks, err := filepath.Glob(fmt.Sprintf("/proc/%d/task/*/schedstat", pid))
	if err != nil || len(tasks) == 0 {
		return 0, fmt.Errorf("no schedstat for pid %d", pid)
	}
	var total int64
	for _, t := range tasks {
		b, err := os.ReadFile(t)
		if err != nil {
			continue // a thread that just exited
		}
		fields := strings.Fields(string(b))
		if len(fields) == 0 {
			continue
		}
		ns, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", t, err)
		}
		total += ns
	}
	return total, nil
}

// rssPeakMiB reads VmHWM, the resident-set high-water mark.
func rssPeakMiB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("pid %d: no VmHWM", pid)
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// copyDir copies the regular files of a flat directory tree.
func copyDir(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, info.Mode())
	})
}

// watchdog fails the run, naming the phase, when a phase outlives its
// allowance instead of letting the run hang.
type watchdog struct {
	mu       sync.Mutex
	phase    string
	deadline time.Time
}

const phaseAllowance = 60 * time.Second

var dog = &watchdog{}

// enter names the phase now running; extra lengthens its allowance (the
// measured phase runs for -seconds on top).
func enter(phase string, extra time.Duration) {
	dog.mu.Lock()
	dog.phase, dog.deadline = phase, time.Now().Add(phaseAllowance+extra)
	dog.mu.Unlock()
	logf("phase %s", phase)
}

func (w *watchdog) run() {
	for range time.Tick(250 * time.Millisecond) {
		w.mu.Lock()
		phase, late := w.phase, !w.deadline.IsZero() && time.Now().After(w.deadline)
		w.mu.Unlock()
		if late {
			fatalf("watchdog: phase %q exceeded its %s allowance", phase, phaseAllowance)
		}
	}
}

// cleanup holds what every exit path undoes besides the children.
var (
	cleanupMu sync.Mutex
	tempDirs  []string
)

func addTemp(dir string) {
	cleanupMu.Lock()
	tempDirs = append(tempDirs, dir)
	cleanupMu.Unlock()
}

func cleanup() {
	killAll()
	cleanupMu.Lock()
	defer cleanupMu.Unlock()
	for _, d := range tempDirs {
		_ = os.RemoveAll(d)
	}
}

func onSignals() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sig
		fatalf("interrupted by %s", s)
	}()
}

func logf(format string, args ...any) {
	if verbose {
		fmt.Fprintf(os.Stderr, "ofmfbench: "+format+"\n", args...)
	}
}

// fatalf reports the failure, undoes everything the run started and
// exits non-zero without printing a result line.
func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "ofmfbench: "+format+"\n", args...)
	cleanup()
	os.Exit(1)
}

// cpuMask is a sched_setaffinity bit set, wide enough for 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU confines every thread of this process — and so every child
// it forks — to the first CPU it is allowed on, and returns that CPU, or
// -1 when the kernel refuses. On one CPU a request's latency is the work
// on its blocking path plus two context switches. Left to both vCPUs of
// the sandbox, every hop between generator and server crosses CPUs with
// an inter-processor interrupt that costs 50-100 us and varies by the
// minute: it swamps the ~20 us a GET costs and does not cancel against
// the null server (see bench/README.md, measured noise).
func pinToOneCPU() int {
	var mask cpuMask
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 {
		return -1
	}
	cpu := -1
	for i := 0; i < len(mask)*64 && cpu < 0; i++ {
		if mask[i/64]&(1<<(i%64)) != 0 {
			cpu = i
		}
	}
	if cpu < 0 {
		return -1
	}
	mask = cpuMask{}
	mask[cpu/64] = 1 << (cpu % 64)
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return -1
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); errno != 0 && errno != syscall.ESRCH {
			return -1
		}
	}
	return cpu
}
