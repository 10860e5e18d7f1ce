package tasks

import (
	"errors"
	"sync"
	"testing"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

const base = odata.ID("/redfish/v1/TaskService/Tasks")

func TestLifecycleComplete(t *testing.T) {
	svc := NewService(store.New(), base)
	task := svc.Start("compose")
	if task.State() != redfish.TaskRunning {
		t.Fatalf("state = %s", task.State())
	}
	if err := task.Progress(50, "halfway"); err != nil {
		t.Fatal(err)
	}
	if err := task.Complete("done"); err != nil {
		t.Fatal(err)
	}
	snap := task.Snapshot()
	if snap.TaskState != redfish.TaskCompleted || snap.PercentComplete != 100 {
		t.Errorf("snapshot = %+v", snap)
	}
	if snap.TaskStatus != odata.HealthOK {
		t.Errorf("TaskStatus = %s", snap.TaskStatus)
	}
	if snap.EndTime == "" {
		t.Error("missing EndTime")
	}
	if len(snap.Messages) != 2 {
		t.Errorf("messages = %v", snap.Messages)
	}
}

func TestLifecycleFail(t *testing.T) {
	svc := NewService(store.New(), base)
	task := svc.Start("compose")
	if err := task.Fail("no capacity"); err != nil {
		t.Fatal(err)
	}
	snap := task.Snapshot()
	if snap.TaskState != redfish.TaskException || snap.TaskStatus != odata.HealthCritical {
		t.Errorf("snapshot = %+v", snap)
	}
}

func TestTerminalTransitionsRejected(t *testing.T) {
	svc := NewService(store.New(), base)
	task := svc.Start("x")
	if err := task.Complete(""); err != nil {
		t.Fatal(err)
	}
	if err := task.Complete(""); !errors.Is(err, ErrFinished) {
		t.Errorf("second complete err = %v", err)
	}
	if err := task.Fail(""); !errors.Is(err, ErrFinished) {
		t.Errorf("fail after complete err = %v", err)
	}
	if err := task.Progress(10, ""); !errors.Is(err, ErrFinished) {
		t.Errorf("progress after complete err = %v", err)
	}
	if err := task.Cancel(); !errors.Is(err, ErrFinished) {
		t.Errorf("cancel after complete err = %v", err)
	}
}

func TestCancelSignalsWorker(t *testing.T) {
	svc := NewService(store.New(), base)
	task := svc.Start("long")
	done := make(chan string, 1)
	go func() {
		select {
		case <-task.Cancelled():
			done <- "cancelled"
		case <-time.After(time.Second):
			done <- "timeout"
		}
	}()
	if err := task.Cancel(); err != nil {
		t.Fatal(err)
	}
	if got := <-done; got != "cancelled" {
		t.Errorf("worker saw %q", got)
	}
	if task.State() != redfish.TaskCancelled {
		t.Errorf("state = %s", task.State())
	}
}

func TestProgressClamped(t *testing.T) {
	svc := NewService(store.New(), base)
	task := svc.Start("x")
	if err := task.Progress(150, ""); err != nil {
		t.Fatal(err)
	}
	if p := task.Snapshot().PercentComplete; p != 100 {
		t.Errorf("percent = %d", p)
	}
	if err := task.Progress(-4, ""); err != nil {
		t.Fatal(err)
	}
	if p := task.Snapshot().PercentComplete; p != 0 {
		t.Errorf("percent = %d", p)
	}
}

func TestWait(t *testing.T) {
	svc := NewService(store.New(), base)
	task := svc.Start("x")
	go func() {
		time.Sleep(5 * time.Millisecond)
		_ = task.Complete("")
	}()
	state, err := task.Wait(time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if state != redfish.TaskCompleted {
		t.Errorf("state = %s", state)
	}
}

func TestWaitTimeout(t *testing.T) {
	svc := NewService(store.New(), base)
	task := svc.Start("x")
	if _, err := task.Wait(5 * time.Millisecond); err == nil {
		t.Error("expected timeout error")
	}
}

func TestMirrorAndNotifier(t *testing.T) {
	var mu sync.Mutex
	var mirrored []redfish.Task
	var notified []redfish.EventRecord
	st := store.New()
	st.Watch(func(c store.Change) {
		var task redfish.Task
		if err := st.GetAs(c.ID, &task); err != nil {
			t.Errorf("%s %s: %v", c.Kind, c.ID, err)
		}
		mu.Lock()
		mirrored = append(mirrored, task)
		mu.Unlock()
	})
	svc := NewService(st, base,
		WithNotifier(func(rec redfish.EventRecord) {
			mu.Lock()
			notified = append(notified, rec)
			mu.Unlock()
		}),
	)
	task := svc.Start("compose")
	_ = task.Progress(10, "")
	_ = task.Complete("")
	mu.Lock()
	defer mu.Unlock()
	if len(mirrored) != 3 {
		t.Errorf("mirrored %d snapshots, want 3", len(mirrored))
	}
	if len(notified) != 3 {
		t.Errorf("notified %d records, want 3", len(notified))
	}
	last := mirrored[len(mirrored)-1]
	if last.TaskState != redfish.TaskCompleted {
		t.Errorf("final mirrored state = %s", last.TaskState)
	}
	if notified[0].OriginOfCondition == nil || notified[0].OriginOfCondition.ODataID != task.URI() {
		t.Errorf("notification origin = %+v", notified[0].OriginOfCondition)
	}
}

// TestStartNeverOverwrites: ids come from the collection, so a task
// started over a tree that already holds Tasks/1 (a previous run's, say)
// takes the next free id and leaves the stored one as it was.
func TestStartNeverOverwrites(t *testing.T) {
	st := store.New()
	old := base.Append("1")
	if err := st.Put(old, map[string]any{"@odata.id": string(old), "TaskState": redfish.TaskCompleted}); err != nil {
		t.Fatal(err)
	}
	before, _, _ := st.Get(old)
	svc := NewService(st, base)
	t1, t2 := svc.Start("a"), svc.Start("b")
	if t1.ID() == "1" || t2.ID() == "1" || t1.ID() == t2.ID() {
		t.Fatalf("task ids %s and %s, want two fresh ids", t1.ID(), t2.ID())
	}
	if after, _, _ := st.Get(old); string(after) != string(before) {
		t.Errorf("stored Tasks/1 changed: %s -> %s", before, after)
	}
}

func TestDeterministicClock(t *testing.T) {
	fixed := time.Date(2023, 5, 15, 10, 0, 0, 0, time.UTC)
	svc := NewService(store.New(), base, WithClock(func() time.Time { return fixed }))
	task := svc.Start("x")
	_ = task.Complete("")
	snap := task.Snapshot()
	if snap.StartTime != "2023-05-15T10:00:00Z" || snap.EndTime != "2023-05-15T10:00:00Z" {
		t.Errorf("times = %s / %s", snap.StartTime, snap.EndTime)
	}
}

func TestConcurrentTasks(t *testing.T) {
	svc := NewService(store.New(), base)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			task := svc.Start("p")
			_ = task.Progress(50, "")
			_ = task.Complete("")
		}()
	}
	wg.Wait()
	st := svc.st
	st.RegisterCollection(base, "#TaskCollection.TaskCollection", "Tasks")
	ids, err := st.Members(base)
	if err != nil || len(ids) != 32 {
		t.Fatalf("tasks = %d (%v)", len(ids), err)
	}
	for _, id := range ids {
		var task redfish.Task
		if err := st.GetAs(id, &task); err != nil || task.TaskState != redfish.TaskCompleted {
			t.Errorf("%s: state %q (%v)", id, task.TaskState, err)
		}
	}
}
