package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"ofmf/internal/odata"
)

// waitBackend hands out one wait per Append and records when each is
// called, so tests can tell a deferred wait from a blocking one and
// count how often each ran.
type waitBackend struct {
	mu     sync.Mutex
	called []int // called[i]: how many times batch i's wait ran
	order  []int // batch indices in the order their waits ran
	fail   map[int]error
	gate   chan struct{} // when non-nil, every wait blocks until it is closed
}

func (b *waitBackend) Append([]Record) func() error {
	b.mu.Lock()
	i := len(b.called)
	b.called = append(b.called, 0)
	b.mu.Unlock()
	return func() error {
		if b.gate != nil {
			<-b.gate
		}
		b.mu.Lock()
		defer b.mu.Unlock()
		b.called[i]++
		b.order = append(b.order, i)
		return b.fail[i]
	}
}

func (b *waitBackend) Close() error { return nil }

func (b *waitBackend) snapshot() (called, order []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]int(nil), b.called...), append([]int(nil), b.order...)
}

func sysID(i int) odata.ID { return odata.ID(fmt.Sprintf("/redfish/v1/Systems/%d", i)) }

// TestDeferredRunsEveryWaitOnceAtTheEnd: under Deferred a mutation is
// applied and logged when its call returns but no wait has run yet;
// when the unit ends every wait runs exactly once, in append order.
func TestDeferredRunsEveryWaitOnceAtTheEnd(t *testing.T) {
	s := New()
	b := &waitBackend{}
	s.AttachBackend(b, 0)
	err := s.Deferred(context.Background(), func(ctx context.Context) error {
		if err := s.PutCtx(ctx, sysID(1), testRes{Name: "a"}); err != nil {
			return err
		}
		if err := s.CreateCtx(ctx, sysID(2), testRes{Name: "b"}); err != nil {
			return err
		}
		if err := s.PatchCtx(ctx, sysID(1), map[string]any{"Name": "c"}, ""); err != nil {
			return err
		}
		if err := s.PutSubtreeCtx(ctx, "/redfish/v1/Fabrics/F", map[odata.ID]any{"/redfish/v1/Fabrics/F": testRes{Name: "f"}}); err != nil {
			return err
		}
		if _, err := s.DeleteSubtreeCtx(ctx, "/redfish/v1/Fabrics/F"); err != nil {
			return err
		}
		if err := s.DeleteCtx(ctx, sysID(2)); err != nil {
			return err
		}
		if !s.Exists(sysID(1)) || s.Exists(sysID(2)) || s.Seq() != 6 {
			t.Errorf("mutations not applied and logged on return: seq=%d", s.Seq())
		}
		if called, _ := b.snapshot(); len(called) != 6 || called[0]+called[1]+called[2]+called[3]+called[4]+called[5] != 0 {
			t.Errorf("waits ran inside the unit: %v", called)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	called, order := b.snapshot()
	for i, n := range called {
		if n != 1 {
			t.Errorf("wait %d ran %d times, want exactly once", i, n)
		}
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("waits ran in order %v, want append order", order)
		}
	}
}

// TestDeferredNestedJoinsOuter: a Deferred opened under another does
// not wait by itself; the outer unit runs every wait.
func TestDeferredNestedJoinsOuter(t *testing.T) {
	s := New()
	b := &waitBackend{}
	s.AttachBackend(b, 0)
	err := s.Deferred(context.Background(), func(ctx context.Context) error {
		if err := s.Deferred(ctx, func(ctx context.Context) error {
			return s.PutCtx(ctx, sysID(1), testRes{Name: "inner"})
		}); err != nil {
			return err
		}
		if called, _ := b.snapshot(); called[0] != 0 {
			t.Error("inner unit ran its wait; it must join the outer")
		}
		return s.PutCtx(ctx, sysID(2), testRes{Name: "outer"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if called, _ := b.snapshot(); len(called) != 2 || called[0] != 1 || called[1] != 1 {
		t.Fatalf("waits = %v, want each exactly once", called)
	}
}

// TestDeferredErrors: fn's error wins over a wait error, the first wait
// error is the one returned, and every wait still runs exactly once.
func TestDeferredErrors(t *testing.T) {
	diskFull, late := errors.New("disk full"), errors.New("late failure")
	boom := errors.New("boom")
	for _, tc := range []struct {
		name  string
		fnErr error
		want  error
	}{
		{"wait error surfaces", nil, diskFull},
		{"fn error wins", boom, boom},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := New()
			b := &waitBackend{fail: map[int]error{1: diskFull, 2: late}}
			s.AttachBackend(b, 0)
			err := s.Deferred(context.Background(), func(ctx context.Context) error {
				for i := 0; i < 3; i++ {
					if err := s.PutCtx(ctx, sysID(i), testRes{Name: "x"}); err != nil {
						t.Errorf("put %d inside the unit returned %v; its wait is the unit's", i, err)
					}
				}
				return tc.fnErr
			})
			if !errors.Is(err, tc.want) {
				t.Fatalf("Deferred = %v, want %v", err, tc.want)
			}
			if called, _ := b.snapshot(); len(called) != 3 || called[0] != 1 || called[1] != 1 || called[2] != 1 {
				t.Fatalf("waits = %v, want each exactly once", called)
			}
		})
	}
}

// TestMutationOutsideDeferralBlocksOnItsOwnWait: with no unit of work
// in its context a mutation returns only after its own wait — and so
// does one that reuses the context of a unit that has already ended.
func TestMutationOutsideDeferralBlocksOnItsOwnWait(t *testing.T) {
	s := New()
	var stale context.Context
	if err := s.Deferred(context.Background(), func(ctx context.Context) error {
		stale = ctx
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for name, ctx := range map[string]context.Context{"no unit": context.Background(), "ended unit": stale} {
		t.Run(name, func(t *testing.T) {
			b := &waitBackend{gate: make(chan struct{})}
			s.AttachBackend(b, s.Seq())
			done := make(chan error, 1)
			go func() { done <- s.PutCtx(ctx, sysID(7), testRes{Name: name}) }()
			select {
			case err := <-done:
				t.Fatalf("Put returned (%v) before its wait was released", err)
			case <-time.After(20 * time.Millisecond):
			}
			close(b.gate)
			if err := <-done; err != nil {
				t.Fatal(err)
			}
			if called, _ := b.snapshot(); len(called) != 1 || called[0] != 1 {
				t.Fatalf("waits = %v, want the mutation's own wait exactly once", called)
			}
		})
	}
}

// TestPutSubtreeKeepingItsPrefixIsAnUpsert: keeping the prefix itself
// removes nothing under it — the form agents use to publish only the
// resources an op touched.
func TestPutSubtreeKeepingItsPrefixIsAnUpsert(t *testing.T) {
	s := New()
	root := odata.ID("/redfish/v1/Chassis/C")
	for _, id := range []odata.ID{root, root + "/Memory/m0", root + "/Memory/m1"} {
		if err := s.Put(id, testRes{Name: "old"}); err != nil {
			t.Fatal(err)
		}
	}
	var changes []Change
	s.Watch(func(c Change) { changes = append(changes, c) })
	err := s.PutSubtree(root, map[odata.ID]any{
		root + "/Memory/m1": testRes{Name: "new"},
		root + "/Memory/m2": testRes{Name: "new"},
	}, root)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 4 || len(changes) != 2 || changes[0].Kind != Updated || changes[1].Kind != Added {
		t.Fatalf("len=%d changes=%+v, want one update, one add, nothing removed", s.Len(), changes)
	}
}
