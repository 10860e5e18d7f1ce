package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/obsv"
	"ofmf/internal/odata"
	"ofmf/internal/service"
	"ofmf/internal/store"
	"ofmf/internal/store/persist"
)

// benchRequest is the system the compose_cycle workload of bench/
// composes on its 64-node testbed.
var benchRequest = composer.Request{Cores: 4, FabricMemoryMiB: 1024, StorageBytes: 1 << 30, GPUSlices: 1}

// durableFramework is core.New with a real fsyncing WAL attached the way
// cmd/ofmf -testbed -data-dir attaches it.
func durableFramework(t *testing.T, nodes int, dir string) (*core.Framework, *obsv.Metrics) {
	t.Helper()
	metrics := obsv.NewMetrics(obsv.NewRegistry())
	f, err := core.New(core.Config{Nodes: nodes, Service: service.Config{Metrics: metrics}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	backend, err := persist.Open(persist.Options{Dir: dir, Fsync: true, Metrics: metrics})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := backend.Recover(f.Service.Store())
	if err != nil {
		t.Fatal(err)
	}
	f.Service.Store().AttachBackend(backend, stats.LastSeq)
	return f, metrics
}

// walBytes is the size of the frames in the data dir's log segments.
// A segment's file runs ahead of its frames by the zeros allocated past
// them; every frame ends in its payload's closing brace, so trimming the
// zeros stops exactly at the last frame.
func walBytes(t *testing.T, dir string) int64 {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no wal segment in %s (err=%v)", dir, err)
	}
	var n int64
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		n += int64(len(bytes.TrimRight(data, "\x00")))
	}
	return n
}

// TestComposeIsOneFsync is the exact-count gate on what a unit of work
// costs the log, at the benchmark's shape over a real fsyncing WAL:
// every composer operation and an HTTP PATCH is exactly one fsync, and
// a compose writes the records and bytes it always did — one wait per
// request changes when the request waits, not what it logs. (The
// benchmark's persist.commits_per_op counts records, so it reads 15
// before and after.) The fsync counts are those of commit f77fd60, where
// the same four steps were 13, 6, 1 and 17 fsyncs. The records and
// bytes are those of a composition that is its ResourceBlock: the block
// carries the composer's record in Oem.OFMF, the composed system links
// that one block, and a hot-add patches the block alone.
func TestComposeIsOneFsync(t *testing.T) {
	dir := t.TempDir()
	f, m := durableFramework(t, 64, dir)

	// The first compose on a node also creates the node's NVMe subsystem
	// endpoint; the steady state the benchmark measures starts after it.
	warm, err := f.Composer.Compose(benchRequest)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Composer.Decompose(warm.ID); err != nil {
		t.Fatal(err)
	}

	var comp composer.Composition
	for _, step := range []struct {
		name                   string
		do                     func() error
		fsyncs, records, bytes int
	}{
		{"compose", func() (err error) {
			comp, err = f.Composer.ComposeCtx(context.Background(), benchRequest)
			return err
		}, 1, 15, 6646},
		{"hot add", func() error {
			return f.Composer.HotAddMemoryCtx(context.Background(), comp.ID, 512)
		}, 1, 6, 3302},
		{"http patch", func() error {
			req := httptest.NewRequest(http.MethodPatch, string(comp.SystemURI), strings.NewReader(`{"Oem":{"Gate":{"Seq":1}}}`))
			rec := httptest.NewRecorder()
			f.Handler().ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				return fmt.Errorf("PATCH = %d: %s", rec.Code, rec.Body)
			}
			return nil
		}, 1, 1, 460},
		{"decompose", func() error {
			return f.Composer.DecomposeCtx(context.Background(), comp.ID)
		}, 1, 20, 3499},
	} {
		fsyncs, records, size := m.WALFsync.Count(), m.WALAppends.Value(), walBytes(t, dir)
		if err := step.do(); err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if got := int(m.WALFsync.Count() - fsyncs); got != step.fsyncs {
			t.Errorf("%s: %d fsyncs, want %d", step.name, got, step.fsyncs)
		}
		if got := int(m.WALAppends.Value() - records); got != step.records {
			t.Errorf("%s: %d WAL records, want %d", step.name, got, step.records)
		}
		if got := int(walBytes(t, dir) - size); got != step.bytes {
			t.Errorf("%s: %d WAL bytes, want %d", step.name, got, step.bytes)
		}
	}
}

// TestAckedComposeSurvivesTruncation is the durability contract of a
// unit of work seen from its caller: once ComposeCtx has returned, a
// crash that keeps at least the bytes the log held at that moment
// keeps every resource the composition wrote — its own, the service's
// and the agents'. A concurrent PATCH writer keeps other group-commit
// rounds interleaving with the composition's records.
func TestAckedComposeSurvivesTruncation(t *testing.T) {
	type marker struct{}
	for seed := 0; seed < 30; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(seed)))
			dir := t.TempDir()
			f, _ := durableFramework(t, 4, dir)
			st := f.Service.Store()

			// Everything written under the composition's context, by any
			// layer: the request context now reaches the agents' publishes.
			var mu sync.Mutex
			wrote := map[odata.ID]bool{}
			st.Watch(func(c store.Change) {
				if c.Ctx != nil && c.Ctx.Value(marker{}) != nil && c.Kind != store.Removed {
					mu.Lock()
					wrote[c.ID] = true
					mu.Unlock()
				}
			})

			stop := make(chan struct{})
			var writer sync.WaitGroup
			writer.Add(1)
			go func() {
				defer writer.Done()
				target := service.SystemsURI.Append(core.NodeName(3))
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					if err := st.PatchCtx(context.Background(), target, map[string]any{"Description": fmt.Sprint(i)}, ""); err != nil {
						t.Errorf("patch writer: %v", err)
						return
					}
				}
			}()

			req := composer.Request{Cores: 1 + rng.Intn(4)}
			if rng.Intn(2) == 0 {
				req.FabricMemoryMiB = 256 << rng.Intn(3)
			}
			if rng.Intn(2) == 0 {
				req.StorageBytes = 1 << 30
			}
			if rng.Intn(2) == 0 {
				req.GPUSlices = 1 + rng.Intn(2)
			}
			comp, err := f.Composer.ComposeCtx(context.WithValue(context.Background(), marker{}, true), req)
			acked := walBytes(t, dir)
			close(stop)
			writer.Wait()
			if err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			for _, id := range append([]odata.ID{comp.SystemURI, comp.BlockURI}, comp.Resources...) {
				if !wrote[id] {
					t.Fatalf("watcher missed %s; the test would not cover it", id)
				}
			}

			// Crash: the backend is abandoned unclosed and the log keeps
			// only what it held when ComposeCtx returned.
			crashed := t.TempDir()
			segs, _ := filepath.Glob(filepath.Join(dir, "*"))
			for _, seg := range segs {
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				if strings.HasPrefix(filepath.Base(seg), "wal-") {
					data = data[:acked]
				}
				if err := os.WriteFile(filepath.Join(crashed, filepath.Base(seg)), data, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			backend, err := persist.Open(persist.Options{Dir: crashed, Fsync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer backend.Close()
			recovered := store.New()
			if _, err := backend.Recover(recovered); err != nil {
				t.Fatal(err)
			}
			for id := range wrote {
				want, _, err := st.Get(id)
				if err != nil {
					t.Fatal(err)
				}
				got, _, err := recovered.Get(id)
				if err != nil {
					t.Fatalf("%s was written by an acknowledged compose (log at %d bytes) and is gone: %v", id, acked, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("%s recovered as %s, acknowledged as %s", id, got, want)
				}
			}
		})
	}
}

// failingWaits is a store.Backend whose every wait fails, counting how
// often each ran.
type failingWaits struct {
	err    error
	mu     sync.Mutex
	called []int
}

func (b *failingWaits) Append([]store.Record) func() error {
	b.mu.Lock()
	i := len(b.called)
	b.called = append(b.called, 0)
	b.mu.Unlock()
	return func() error {
		b.mu.Lock()
		b.called[i]++
		b.mu.Unlock()
		return b.err
	}
}

func (b *failingWaits) Close() error { return nil }

// TestUnitOfWorkReturnsTheWaitError: when the log fails, the unit of
// work's caller hears of it — from ComposeCtx and from the service's
// createInCollection alike — and every wait the backend handed out ran
// exactly once.
func TestUnitOfWorkReturnsTheWaitError(t *testing.T) {
	diskFull := errors.New("disk full")
	for name, op := range map[string]func(f *core.Framework) error{
		"ComposeCtx": func(f *core.Framework) error {
			_, err := f.Composer.ComposeCtx(context.Background(), benchRequest)
			return err
		},
		"createInCollection": func(f *core.Framework) error {
			// A GPU partition: the agent publishes its fabric endpoint and
			// the partition itself, two appends under the one creation.
			_, err := f.Service.ProvisionResource(context.Background(),
				f.GPUAgent.ChassisID().Append("Processors"), []byte(`{}`))
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			f, err := core.New(core.Config{Nodes: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			b := &failingWaits{err: diskFull}
			f.Service.Store().AttachBackend(b, 0)
			if err := op(f); !errors.Is(err, diskFull) {
				t.Fatalf("%s = %v, want the wait's error", name, err)
			}
			b.mu.Lock()
			defer b.mu.Unlock()
			if len(b.called) < 2 {
				t.Fatalf("%d appends; the unit of work should span several", len(b.called))
			}
			for i, n := range b.called {
				if n != 1 {
					t.Errorf("wait %d ran %d times, want exactly once", i, n)
				}
			}
		})
	}
}
