package store

import (
	"context"
	"sync"

	"ofmf/internal/obsv"
)

// deferral collects the durability waits of every mutation one request
// makes, so the request blocks once — for a flush that covers all its
// records — instead of once per mutation.
type deferral struct {
	mu     sync.Mutex
	waits  []func() error
	closed bool
}

type deferralKey struct{}

// add hands wait to the deferral. It reports false once the deferral
// has been settled: a mutation that arrives late (a goroutine that
// outlived its request) must block on its own wait like any mutation
// made outside a deferral.
func (d *deferral) add(wait func() error) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false
	}
	d.waits = append(d.waits, wait)
	return true
}

// Deferred runs fn as one unit of work: store mutations made under the
// context fn receives are applied and logged when their call returns,
// exactly as outside a deferral, but hand their Backend.Append wait to
// the unit instead of blocking on it. When fn returns, every collected
// wait runs, in append order, exactly once, and only then does Deferred
// return — so the caller's acknowledgement still follows a flush (and,
// with a replicating backend, a replica ack) that covers every record
// of the request. With the WAL backend the first wait fsyncs for all
// of them: one request, one fsync.
//
// Deferred returns fn's error if it has one, otherwise the first wait
// error. The waits run whether or not fn failed: the mutations fn did
// make are committed in memory and logged either way. A Deferred opened
// under another joins it — fn runs under the outer unit and the outer
// unit waits. Watchers are notified when each mutation's call returns,
// so they may hear of a change before the wait that makes it durable.
func (s *Store) Deferred(ctx context.Context, fn func(ctx context.Context) error) error {
	if _, ok := ctx.Value(deferralKey{}).(*deferral); ok {
		return fn(ctx)
	}
	d := &deferral{}
	err := fn(context.WithValue(ctx, deferralKey{}, d))
	d.mu.Lock()
	d.closed = true
	waits := d.waits
	d.mu.Unlock()
	if len(waits) == 0 {
		return err
	}
	sp := s.traceStart(ctx, "wal.commit")
	var werr error
	for _, wait := range waits {
		if e := waitDurable(wait); e != nil && werr == nil {
			werr = e
		}
	}
	sp.EndErr(werr)
	if err == nil {
		err = werr
	}
	return err
}

// settle completes one mutation's durability: under a deferral the wait
// is handed over and runs when the unit of work ends; otherwise the
// mutation blocks here, the wait recorded as a wal.commit child of sp.
func settle(ctx context.Context, sp *obsv.Span, wait func() error) error {
	if wait == nil {
		return nil
	}
	if d, ok := ctx.Value(deferralKey{}).(*deferral); ok && d.add(wait) {
		return nil
	}
	c := sp.StartChild("wal.commit")
	err := waitDurable(wait)
	c.EndErr(err)
	return err
}
