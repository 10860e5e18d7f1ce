package core_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"ofmf/internal/composer"
	"ofmf/internal/core"
	"ofmf/internal/odata"
	"ofmf/internal/service"
	"ofmf/internal/store/persist"
)

// smallTestbed is two nodes of 56 cores over pools small enough that the
// tree, not the hardware, decides whether a request fits: one CXL device
// of 4 GiB, 1 GiB of NVMe, one GPU of 7 slices.
var smallTestbed = core.Config{Nodes: 2, CXLDevices: 1, CXLDeviceMiB: 4096, NVMePoolBytes: 1 << 30, GPUs: 1, SlicesPerGPU: 7}

// bootDurable is core.New over dir with a real fsyncing WAL, recovered
// and attached the way cmd/ofmf -testbed -data-dir boots.
func bootDurable(t *testing.T, dir string) *core.Framework {
	t.Helper()
	f, err := core.New(smallTestbed)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	backend, err := persist.Open(persist.Options{Dir: dir, Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	stats, err := backend.Recover(f.Service.Store())
	if err != nil {
		t.Fatal(err)
	}
	f.Service.Store().AttachBackend(backend, stats.LastSeq)
	return f
}

// crashImage is what SIGKILL leaves of a data dir: every write was
// fsynced before it returned, so a copy of the files is the disk the
// next process boots from. The killed process keeps dir to itself.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range files {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(img, filepath.Base(src)), data, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	return img
}

// storedRecord reads what a composition's ResourceBlock names: its
// system and resources, and the zones and connections in its record.
func storedRecord(t *testing.T, f *core.Framework, block odata.ID) []odata.ID {
	t.Helper()
	var b struct {
		Memory, Storage, Processors []odata.Ref
		Links                       struct{ ComputerSystems []odata.Ref }
		Oem                         struct{ OFMF struct{ Undo []odata.ID } }
	}
	if err := f.Service.Store().GetAs(block, &b); err != nil {
		t.Fatal(err)
	}
	uris := []odata.ID{block}
	for _, refs := range [][]odata.Ref{b.Links.ComputerSystems, b.Memory, b.Storage, b.Processors} {
		uris = append(uris, odata.IDsOf(refs)...)
	}
	return append(uris, b.Oem.OFMF.Undo...)
}

func do(t *testing.T, h http.Handler, method, path, body string) (int, string) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader([]byte(body))))
	reply, _ := io.ReadAll(rec.Body)
	return rec.Code, string(reply)
}

// TestComposerAdoptsAfterRestart: compose all of node001, SIGKILL,
// recover into a fresh testbed. The composer's state is read back from
// the tree, so the new process knows the composition, refuses to book
// its cores or its pool capacity twice (the fresh hardware would accept
// both), takes a fresh id, grows the composition and tears it down.
func TestComposerAdoptsAfterRestart(t *testing.T) {
	dir := t.TempDir()
	f := bootDurable(t, dir)
	comp, err := f.Composer.Compose(composer.Request{Cores: 56, FabricMemoryMiB: 3072, StorageBytes: 1 << 29, GPUSlices: 4})
	if err != nil {
		t.Fatal(err)
	}
	comps, stats := f.Composer.Compositions(), f.Composer.Stats()

	g := bootDurable(t, crashImage(t, dir))
	if got := g.Composer.Compositions(); !reflect.DeepEqual(got, comps) {
		t.Errorf("compositions after restart = %+v, want %+v", got, comps)
	}
	if got := g.Composer.Stats(); got != stats {
		t.Errorf("stats after restart = %+v, want %+v", got, stats)
	}
	// The block, the system, 3 resources, a zone and 3 connections.
	uris := storedRecord(t, g, comp.BlockURI)
	if len(uris) != 9 {
		t.Fatalf("%s names %v", comp.BlockURI, uris)
	}

	pinned := composer.Request{Name: "x", Cores: 56, Node: comp.Node}
	if _, err := g.Composer.Compose(pinned); !errors.Is(err, composer.ErrNoCapacity) {
		t.Errorf("pinned compose on the held node: err = %v, want ErrNoCapacity", err)
	}
	body, _ := json.Marshal(pinned)
	if code, reply := do(t, g.Handler(), http.MethodPost, "/composer/v1/Compose", string(body)); code != http.StatusConflict {
		t.Errorf("pinned compose over HTTP = %d, want 409: %s", code, reply)
	}
	for _, req := range []composer.Request{
		{Cores: 1, FabricMemoryMiB: 2048},
		{Cores: 1, StorageBytes: 1 << 30},
		{Cores: 1, GPUSlices: 4},
	} {
		if _, err := g.Composer.Compose(req); !errors.Is(err, composer.ErrNoPool) {
			t.Errorf("compose %+v of capacity the tree assigns: err = %v, want ErrNoPool", req, err)
		}
	}
	fresh, err := g.Composer.Compose(composer.Request{Cores: 1})
	if err != nil {
		t.Fatalf("unnamed compose after restart: %v", err)
	}
	if fresh.ID == comp.ID || fresh.SystemURI == comp.SystemURI {
		t.Errorf("fresh composition %s at %s reuses the adopted %s at %s", fresh.ID, fresh.SystemURI, comp.ID, comp.SystemURI)
	}
	if err := g.Composer.HotAddMemory(comp.ID, 512); err != nil {
		t.Fatalf("hot-add on the adopted composition: %v", err)
	}
	grown, err := g.Composer.Get(comp.ID)
	if err != nil || len(grown.Resources) != len(comp.Resources)+1 {
		t.Fatalf("after hot-add: %+v, %v", grown, err)
	}
	uris = append(uris, storedRecord(t, g, comp.BlockURI)...)

	if code, reply := do(t, g.Handler(), http.MethodDelete, string(comp.SystemURI), ""); code != http.StatusNoContent {
		t.Fatalf("DELETE %s = %d, want 204: %s", comp.SystemURI, code, reply)
	}
	for _, uri := range uris {
		if g.Service.Store().Exists(uri) {
			t.Errorf("%s survived the decompose", uri)
		}
	}
	// uris[2] is the adopted memory chunk: gone from the tree, so gone.
	if code, reply := do(t, g.Handler(), http.MethodDelete, string(uris[2]), ""); code != http.StatusNotFound {
		t.Errorf("DELETE %s after the decompose = %d, want 404: %s", uris[2], code, reply)
	}
	if err := g.Composer.Decompose(fresh.ID); err != nil {
		t.Fatal(err)
	}
	full := composer.Stats{TotalCores: 112, FreeMemoryMiB: 4096, FreeStorageB: 1 << 30, FreeGPUSlices: 7}
	if got := g.Composer.Stats(); got != full {
		t.Errorf("stats after decompose = %+v, want %+v", got, full)
	}
}

// TestComposerAdoptsRestoredTree: an admin tree restore is one more way
// blocks reach the tree, so a dump holding a composition makes the
// composer of the node it is restored on adopt it, and decompose it.
func TestComposerAdoptsRestoredTree(t *testing.T) {
	f, err := core.New(smallTestbed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	comp, err := f.Composer.Compose(composer.Request{Name: "restored", Cores: 8, FabricMemoryMiB: 1024, GPUSlices: 1})
	if err != nil {
		t.Fatal(err)
	}
	dump, err := f.Service.Store().Export()
	if err != nil {
		t.Fatal(err)
	}

	g, err := core.New(smallTestbed)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if code, reply := do(t, g.Handler(), http.MethodPost, string(service.AdminTreeOemURI), string(dump)); code != http.StatusNoContent {
		t.Fatalf("restore = %d: %s", code, reply)
	}
	if got, want := g.Composer.Compositions(), f.Composer.Compositions(); !reflect.DeepEqual(got, want) {
		t.Fatalf("compositions after restore = %+v, want %+v", got, want)
	}
	if got, want := g.Composer.Stats(), f.Composer.Stats(); got != want {
		t.Errorf("stats after restore = %+v, want %+v", got, want)
	}
	if err := g.Composer.Decompose(comp.ID); err != nil {
		t.Fatal(err)
	}
	if g.Service.Store().Exists(comp.SystemURI) || len(g.Composer.Compositions()) != 0 {
		t.Error("the restored composition survived its decompose")
	}
}

// TestResourceBlocksAreComposerOwned: a block is the composer's record of
// a composition, so even under DirectWrites no client writes one. A PATCH
// that would free its cores, a DELETE that would make the composer forget
// it and a POST of a forged one are refused, and the composer's books and
// the stored block are unchanged.
func TestResourceBlocksAreComposerOwned(t *testing.T) {
	f, err := core.New(smallTestbed)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	comp, err := f.Composer.Compose(composer.Request{Cores: 56, FabricMemoryMiB: 1024})
	if err != nil {
		t.Fatal(err)
	}
	stored, _, _ := f.Service.Store().Get(comp.BlockURI)
	stats := f.Composer.Stats()
	for _, w := range []struct{ method, path, body string }{
		{http.MethodPatch, string(comp.BlockURI), `{"Oem":{"OFMF":{"Request":{"Cores":0}}}}`},
		{http.MethodDelete, string(comp.BlockURI), ""},
		{http.MethodPost, string(service.ResourceBlocksURI), string(stored)},
	} {
		if code, reply := do(t, f.Handler(), w.method, w.path, w.body); code != http.StatusMethodNotAllowed {
			t.Errorf("%s %s = %d, want 405: %s", w.method, w.path, code, reply)
		}
	}
	if got, _, _ := f.Service.Store().Get(comp.BlockURI); !bytes.Equal(got, stored) {
		t.Errorf("block after the refused writes = %s, want %s", got, stored)
	}
	if got := f.Composer.Stats(); got != stats {
		t.Errorf("stats after the refused writes = %+v, want %+v", got, stats)
	}
	if members, _ := f.Service.Store().Members(service.ResourceBlocksURI); len(members) != 1 {
		t.Errorf("blocks after the refused writes = %v", members)
	}
}

// TestRestartedPoolIsNotOverbooked: after a restart the tree is the only
// record of what a pool has handed out, since the fresh hardware accepts
// anything up to its size. Concurrent composes for the one GiB the tree
// leaves free check and provision one at a time: exactly one wins.
func TestRestartedPoolIsNotOverbooked(t *testing.T) {
	dir := t.TempDir()
	if _, err := bootDurable(t, dir).Composer.Compose(composer.Request{Cores: 1, FabricMemoryMiB: 3072}); err != nil {
		t.Fatal(err)
	}
	g := bootDurable(t, crashImage(t, dir))
	for round := 0; round < 10; round++ {
		won := make(chan string, 4)
		var wg sync.WaitGroup
		for range 4 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				comp, err := g.Composer.Compose(composer.Request{Cores: 1, FabricMemoryMiB: 1024})
				if err == nil {
					won <- comp.ID
				} else if !errors.Is(err, composer.ErrNoPool) {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		close(won)
		var ids []string
		for id := range won {
			ids = append(ids, id)
		}
		if len(ids) != 1 {
			t.Fatalf("round %d: %d composes of the last GiB won: %v", round, len(ids), ids)
		}
		if err := g.Composer.Decompose(ids[0]); err != nil {
			t.Fatal(err)
		}
	}
}
