// Package tasks implements the Redfish TaskService used by the OFMF for
// long-running operations such as composition requests and fabric
// reconfiguration. A task transitions New → Running → Completed/Exception/
// Cancelled; every transition is written to its resource in the store so
// clients can poll the task monitor URI, and optionally published on the
// event bus. The store is the task table: a task's id is the collection's
// next free one, and the in-memory *Task is only the handle its worker
// drives.
package tasks

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"ofmf/internal/odata"
	"ofmf/internal/redfish"
	"ofmf/internal/store"
)

// ErrFinished is returned by a transition of a task already terminal.
var ErrFinished = errors.New("tasks: task already finished")

// Notifier receives task state-change records; the service wires this to
// the event bus.
type Notifier func(rec redfish.EventRecord)

// Service manages asynchronous tasks.
type Service struct {
	st   *store.Store
	base odata.ID // the task collection URI

	mu     sync.Mutex // guards every task's mutable fields
	notify Notifier
	now    func() time.Time
}

// Task is one tracked operation.
type Task struct {
	svc *Service

	id        string
	uri       odata.ID
	name      string
	state     string
	percent   int
	start     time.Time
	end       time.Time
	messages  []odata.Message
	cancelled chan struct{}
	done      chan struct{}
}

// Option configures the service.
type Option func(*Service)

// WithNotifier wires task state changes to a notifier.
func WithNotifier(n Notifier) Option { return func(s *Service) { s.notify = n } }

// WithClock overrides the time source (tests).
func WithClock(now func() time.Time) Option { return func(s *Service) { s.now = now } }

// NewService creates a task service whose tasks live in st under base
// (e.g. /redfish/v1/TaskService/Tasks).
func NewService(st *store.Store, base odata.ID, opts ...Option) *Service {
	s := &Service{st: st, base: base, now: time.Now}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Start creates a task in the Running state and returns it. Its first
// state is created at the collection's next free id, so a task never
// overwrites a stored one — one a previous run left, say.
func (s *Service) Start(name string) *Task {
	t := &Task{
		svc:       s,
		name:      name,
		state:     redfish.TaskRunning,
		start:     s.now(),
		cancelled: make(chan struct{}),
		done:      make(chan struct{}),
	}
	for {
		t.id = s.st.NextID(s.base)
		t.uri = s.base.Append(t.id)
		if err := s.st.Create(t.uri, t.Snapshot()); !errors.Is(err, store.ErrExists) {
			break
		}
	}
	s.announce(t, redfish.TaskRunning, "TaskStarted")
	return t
}

// publish writes the task's current state and announces it.
func (s *Service) publish(t *Task, msgID string) {
	snap := t.Snapshot()
	_ = s.st.Put(t.uri, snap)
	s.announce(t, snap.TaskState, msgID)
}

func (s *Service) announce(t *Task, state, msgID string) {
	if s.notify != nil {
		ref := odata.NewRef(t.uri)
		s.notify(redfish.EventRecord{
			EventType:         redfish.EventStatusChange,
			EventID:           t.id,
			EventTimestamp:    redfish.Timestamp(s.now()),
			MessageID:         "TaskEvent.1.0." + msgID,
			Message:           fmt.Sprintf("task %s: %s", t.id, state),
			OriginOfCondition: &ref,
		})
	}
}

// ID returns the task's identifier.
func (t *Task) ID() string { return t.id }

// URI returns the task monitor URI.
func (t *Task) URI() odata.ID { return t.uri }

// Done returns a channel closed when the task reaches a terminal state.
func (t *Task) Done() <-chan struct{} { return t.done }

// Cancelled returns a channel closed when cancellation is requested.
func (t *Task) Cancelled() <-chan struct{} { return t.cancelled }

// Progress updates the completion percentage and appends an optional
// message. It fails once the task is terminal.
func (t *Task) Progress(percent int, message string) error {
	t.svc.mu.Lock()
	if terminal(t.state) {
		t.svc.mu.Unlock()
		return ErrFinished
	}
	if percent < 0 {
		percent = 0
	}
	if percent > 100 {
		percent = 100
	}
	t.percent = percent
	if message != "" {
		t.messages = append(t.messages, odata.Message{MessageID: "TaskEvent.1.0.Progress", Message: message})
	}
	t.svc.mu.Unlock()
	t.svc.publish(t, "TaskProgressChanged")
	return nil
}

// Complete marks the task successful.
func (t *Task) Complete(message string) error {
	return t.finish(redfish.TaskCompleted, "TaskCompletedOK", message)
}

// Fail marks the task failed.
func (t *Task) Fail(message string) error {
	return t.finish(redfish.TaskException, "TaskAborted", message)
}

// Cancel requests cancellation and marks the task cancelled.
func (t *Task) Cancel() error {
	t.svc.mu.Lock()
	if terminal(t.state) {
		t.svc.mu.Unlock()
		return ErrFinished
	}
	close(t.cancelled)
	t.svc.mu.Unlock()
	return t.finish(redfish.TaskCancelled, "TaskCancelled", "cancelled by client")
}

func (t *Task) finish(state, msgID, message string) error {
	t.svc.mu.Lock()
	if terminal(t.state) {
		t.svc.mu.Unlock()
		return ErrFinished
	}
	t.state = state
	t.end = t.svc.now()
	if state == redfish.TaskCompleted {
		t.percent = 100
	}
	if message != "" {
		t.messages = append(t.messages, odata.Message{MessageID: "TaskEvent.1.0." + msgID, Message: message})
	}
	t.svc.mu.Unlock()
	// Mirror and notify before signalling completion, so a waiter that
	// wakes on Done always observes the terminal resource in the tree.
	t.svc.publish(t, msgID)
	close(t.done)
	return nil
}

func terminal(state string) bool {
	switch state {
	case redfish.TaskCompleted, redfish.TaskException, redfish.TaskCancelled:
		return true
	}
	return false
}

// State returns the current task state.
func (t *Task) State() string {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	return t.state
}

// Snapshot renders the task as its Redfish resource.
func (t *Task) Snapshot() redfish.Task {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	task := redfish.Task{
		Resource:        odata.NewResource(t.uri, redfish.TypeTask, t.name),
		TaskState:       t.state,
		PercentComplete: t.percent,
		StartTime:       redfish.Timestamp(t.start),
		TaskMonitor:     string(t.uri),
		Messages:        append([]odata.Message(nil), t.messages...),
	}
	if terminal(t.state) {
		task.EndTime = redfish.Timestamp(t.end)
		if t.state == redfish.TaskCompleted {
			task.TaskStatus = odata.HealthOK
		} else {
			task.TaskStatus = odata.HealthCritical
		}
	}
	return task
}

// Wait blocks until the task is terminal or the timeout elapses, and
// returns the final state.
func (t *Task) Wait(timeout time.Duration) (string, error) {
	select {
	case <-t.done:
		return t.State(), nil
	case <-time.After(timeout):
		return t.State(), fmt.Errorf("tasks: wait on %s timed out after %v", t.id, timeout)
	}
}
