package storetest

import (
	"reflect"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// Node is a store with a registry following it, as a service boots them.
// Registry reads the registry as a value reflect.DeepEqual compares.
type Node struct {
	Store    *store.Store
	Registry func() any
}

// Projected is one registry that follows a collection of the tree
// through store.Projection. Boot builds a node as a process starts, the
// registry watching before any history arrives. Write makes live creates,
// updates and deletes of the collection's members, and leaves Member in
// the tree.
type Projected struct {
	Boot     func(t *testing.T) Node
	Write    func(t *testing.T, st *store.Store)
	Member   odata.ID
	Recreate any
}

// RunProjection is the conformance check of every projection of the
// tree. It makes p's live writes on one node, then brings three more
// nodes to that tree the other ways a tree arrives: a reboot folding the
// write log in (store.Replay), a replica applying it record by record
// (Store.Apply) and an Import of the first node's export. Last it deletes
// Member and stores Recreate at its URI, and the replica applies that
// too. After each step the node's registry must equal that of a node
// handed the same tree by plain Puts.
func RunProjection(t *testing.T, p Projected) {
	t.Helper()
	var log logBackend
	leader := p.Boot(t)
	leader.Store.AttachBackend(&log, 0)
	p.Write(t, leader.Store)
	if reflect.DeepEqual(leader.Registry(), p.Boot(t).Registry()) {
		t.Fatal("the live writes left the registry as boot built it")
	}
	sameAsFresh(t, p, "live writes", leader)

	rebooted := p.Boot(t)
	r := rebooted.Store.Replay()
	for _, rec := range log {
		check(t, r.Add(rec))
	}
	r.Finish()
	sameAsFresh(t, p, "reboot", rebooted)

	replica, applied := p.Boot(t), 0
	follow := func() {
		for _, rec := range log[applied:] {
			check(t, replica.Store.Apply(rec))
		}
		applied = len(log)
	}
	follow()
	sameAsFresh(t, p, "replica apply", replica)

	imported := p.Boot(t)
	doc, err := leader.Store.Export()
	check(t, err)
	check(t, imported.Store.Import(doc))
	sameAsFresh(t, p, "import", imported)

	check(t, leader.Store.Delete(p.Member))
	check(t, leader.Store.Put(p.Member, p.Recreate))
	sameAsFresh(t, p, "delete then recreate", leader)
	follow()
	sameAsFresh(t, p, "delete then recreate, applied", replica)
}

func check(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// sameAsFresh compares n's registry with that of a node given n's tree.
func sameAsFresh(t *testing.T, p Projected, step string, n Node) {
	t.Helper()
	fresh := p.Boot(t)
	for _, id := range n.Store.IDs() {
		raw, _, err := n.Store.Get(id)
		check(t, err)
		check(t, fresh.Store.Put(id, raw))
	}
	if got, want := n.Registry(), fresh.Registry(); !reflect.DeepEqual(got, want) {
		t.Errorf("after %s the registry is\n%+v\nbuilt fresh from the same tree it is\n%+v", step, got, want)
	}
}

// logBackend keeps every committed record in commit order; the store
// appends under its write lock.
type logBackend []store.Record

func (l *logBackend) Append(batch []store.Record) func() error {
	*l = append(*l, batch...)
	return nil
}

func (*logBackend) Close() error { return nil }
