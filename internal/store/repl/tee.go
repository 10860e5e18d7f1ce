package repl

import "ofmf/internal/store"

// Tee is the replication-aware store backend a leader runs: every
// committed record batch is forwarded to the inner durability backend
// (when the leader persists) and offered to the shipping Hub. The store
// calls Append in commit order, so both see the same ordered log. The
// wait it returns completes only when the inner backend's wait does AND
// the batch's last record clears the hub's semi-sync bar — so a client
// ack means "on disk here and applied by MinSync replicas", and a
// fenced leader fails the wait instead of acknowledging a write its
// successor will never see.
type Tee struct {
	hub   *Hub
	inner store.Backend
}

// NewTee wraps inner, which may be nil for a diskless leader.
func NewTee(hub *Hub, inner store.Backend) *Tee {
	return &Tee{hub: hub, inner: inner}
}

// Append implements store.Backend.
func (t *Tee) Append(batch []store.Record) func() error {
	if len(batch) == 0 {
		return nil
	}
	var innerWait func() error
	if t.inner != nil {
		innerWait = t.inner.Append(batch)
	}
	t.hub.Offer(batch)
	last := batch[len(batch)-1].Seq
	return func() error {
		if innerWait != nil {
			if err := innerWait(); err != nil {
				return err
			}
		}
		return t.hub.WaitAcked(last)
	}
}

// Close closes the inner durability backend, if any. The hub outlives
// the tee only long enough for the owning node to tear it down.
func (t *Tee) Close() error {
	if t.inner != nil {
		return t.inner.Close()
	}
	return nil
}
