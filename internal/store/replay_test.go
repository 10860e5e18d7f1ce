package store

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ofmf/internal/odata"
)

// This file holds the fold to the replay it replaced: Store.Apply as
// commit eca1fdc had it, one record at a time through the live put and
// delete paths, is kept here as the oracle.

// parentApply is Store.Apply as commit eca1fdc had it, on a store with no
// backend: every record hashed, linked or unlinked and announced.
func parentApply(s *Store, rec Record) error {
	switch rec.Op {
	case OpPut:
		raw := bytes.Clone(rec.Raw)
		if !rec.verified {
			var err error
			if raw, err = canonicalize(rec.Raw); err != nil {
				return err
			}
		}
		s.lock()
		kind, changed := s.eng.put(rec.ID, raw)
		var cs uint64
		if changed {
			cs = s.mutSeq.Add(1)
		}
		s.mu.Unlock()
		if changed {
			s.notify(Change{Kind: kind, ID: rec.ID, Seq: cs, Ctx: context.Background(), Replayed: true})
		}
		return nil
	case OpDelete:
		s.lock()
		removed := s.eng.remove(rec.ID)
		cs := s.mutSeq.Add(1)
		s.mu.Unlock()
		if removed {
			s.notify(Change{Kind: Removed, ID: rec.ID, Seq: cs, Ctx: context.Background(), Replayed: true})
		}
		return nil
	default:
		return fmt.Errorf("store: apply: unknown record op %q", rec.Op)
	}
}

// The fold's fuzz universe: numeric and non-numeric leaves, ids nested
// under ids that come and go, under parents that are never stored, and
// ids that are not plain paths.
var (
	foldIDs = []odata.ID{
		"/r/C/1", "/r/C/2", "/r/C/3", "/r/C/10", "/r/C/a", "/r/C/b",
		"/r/C/2/Sub/1", "/r/C/2/Sub/7", "/r/C/12/x", "/r/D/5", "/r/D/q/9", "/r",
		"/r/C/4/", "r/E/6", // ids odata.ID cleans before it splits them
	}
	foldColls    = []odata.ID{"/r/C", "/r/D", "/r/C/2/Sub"}
	foldPayloads = []string{`{"N":1}`, `{"N":2}`, `{"Name":"x","Oem":{"v":[1,2]}}`, `{}`}
	// Unverified puts: canonical, canonical once compacted, and not JSON.
	foldSloppy = []string{`{"N":1}`, `{ "N" : 2 }`, `{"N":`}
)

// foldStore is the tree every replay in the fuzz target starts from: a
// few of the universe's ids, a high-water mark left by a deleted id,
// and every collection's cache primed.
func foldStore(t *testing.T) *Store {
	t.Helper()
	s := New()
	for _, c := range foldColls {
		s.RegisterCollection(c, "#Coll", "c")
	}
	for i, id := range []odata.ID{"/r/C/1", "/r/C/3", "/r/C/a", "/r/C/2/Sub/1", "/r/D/5", "/r/C/9"} {
		if err := s.Put(id, json.RawMessage(foldPayloads[i%len(foldPayloads)])); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Delete("/r/C/9"); err != nil {
		t.Fatal(err)
	}
	for _, c := range foldColls {
		if _, err := s.Members(c); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// foldRecords turns prog into records, two bytes a record: the first
// picks the op, the second the id and payload.
func foldRecords(prog []byte) []Record {
	var recs []Record
	for i := 0; i+1 < len(prog); i += 2 {
		id := foldIDs[int(prog[i+1])%len(foldIDs)]
		k := int(prog[i+1]) / len(foldIDs)
		seq := uint64(len(recs) + 1)
		switch prog[i] % 8 {
		case 0, 1, 2: // a put as a WAL frame carries it
			recs = append(recs, Record{Seq: seq, Op: OpPut, ID: id, Raw: json.RawMessage(foldPayloads[k%len(foldPayloads)])})
		case 3, 4, 5:
			recs = append(recs, Record{Seq: seq, Op: OpDelete, ID: id})
		case 6: // a put json.Unmarshal read, so unverified even when canonical; its epoch tells feed
			recs = append(recs, Record{Seq: seq, Epoch: 1, Op: OpPut, ID: id, Raw: json.RawMessage(foldSloppy[k%len(foldSloppy)])})
		case 7:
			if k%4 == 0 {
				recs = append(recs, Record{Seq: seq, Op: "x", ID: id})
			} else { // re-put what the starting tree holds, or the last put
				recs = append(recs, Record{Seq: seq, Op: OpPut, ID: id, Raw: json.RawMessage(foldPayloads[0])})
			}
		}
	}
	return recs
}

// feed hands every record to add as scanFrames would: those a WAL frame
// carries (no epoch) read by DecodeRecord from one buffer that the next
// record overwrites, the rest as they are. It stops at the first error
// and returns its index, or -1.
func feed(recs []Record, add func(Record) error) (int, error) {
	var buf []byte
	for i, rec := range recs {
		if rec.Epoch == 0 && (rec.Op == OpPut && IsCanonical(rec.Raw) || rec.Op == OpDelete) {
			var err error
			if buf, err = AppendRecord(buf[:0], rec); err != nil {
				panic(err)
			}
			var ok bool
			if rec, ok = DecodeRecord(buf); !ok {
				panic(fmt.Sprintf("DecodeRecord refused %s", buf))
			}
		}
		if err := add(rec); err != nil {
			return i, err
		}
	}
	return -1, nil
}

// projector is a watcher keeping what a projection would: each id's
// bytes as the tree held them when it started and as of its last change
// since, and every change it was told of.
type projector struct {
	s     *Store
	state map[odata.ID]string
	log   []Change
}

func watch(s *Store) *projector {
	p := &projector{s: s, state: map[odata.ID]string{}}
	for _, id := range s.IDs() {
		raw, _, _ := s.Get(id)
		p.state[id] = string(raw)
	}
	s.Watch(func(c Change) {
		if !c.Replayed || c.Commit != 0 {
			panic(fmt.Sprintf("replay announced %+v", c))
		}
		p.log = append(p.log, c)
		if raw, _, err := p.s.Get(c.ID); err == nil {
			p.state[c.ID] = string(raw)
		} else {
			delete(p.state, c.ID)
		}
	})
	return p
}

// foldState is everything a reader can learn from a tree — its document,
// every entity tag, every registered collection's members and payload,
// and NextID under every parent in the universe — and the derived state
// behind it: the children index and the high-water marks.
func foldState(t *testing.T, s *Store) map[string]string {
	t.Helper()
	out := map[string]string{
		"children": fmt.Sprint(s.eng.children), // fmt sorts map keys
		"hiwater":  fmt.Sprint(s.eng.hiwater),
	}
	doc, err := s.Export()
	if err != nil {
		t.Fatal(err)
	}
	out["export"] = string(doc)
	for _, id := range s.IDs() {
		etag, _ := s.Etag(id)
		out["etag "+string(id)] = etag
	}
	for _, c := range foldColls {
		m, _ := s.Members(c)
		out["members "+string(c)] = fmt.Sprint(m)
		_ = s.CollectionView(c, func(payload []byte, etag string) {
			out["collection "+string(c)] = string(payload) + etag
		})
	}
	for _, id := range foldIDs {
		for p := id; p != "/"; p = p.Parent() {
			out["next "+string(p)] = s.NextID(p)
		}
	}
	return out
}

// FuzzReplayFold holds the fold to the record-by-record replay it
// replaced: the same error at the same record, the same tree, entity
// tags, collections and NextID marks, and a watcher that ends knowing
// what the oracle's watcher knows, having been told once per id whose
// final state differs from its starting one, in the commit order of that
// id's last record.
func FuzzReplayFold(f *testing.F) {
	for seed := int64(0); seed < 24; seed++ {
		prog := make([]byte, 2*(8+rand.New(rand.NewSource(seed)).Intn(120)))
		rand.New(rand.NewSource(seed)).Read(prog)
		f.Add(prog)
	}
	f.Add([]byte{0, 0, 3, 0, 0, 0, 3, 0})    // put, delete, recreate, delete /r/C/1
	f.Add([]byte{0, 3, 3, 3})                // a numeric id created and deleted: NextID moves on
	f.Add([]byte{0, 1, 0, 7, 3, 1})          // a nested id outlives its deleted parent
	f.Add([]byte{7, 14, 7, 15, 6, 0, 0, 16}) // identical re-puts, one unverified
	f.Add([]byte{0, 1, 6, 29, 0, 2})         // an unverified put that is not JSON stops the fold
	f.Add([]byte{0, 1, 7, 0, 0, 2})          // so does an unknown op
	f.Fuzz(func(t *testing.T, prog []byte) {
		recs := foldRecords(prog)

		want := foldStore(t)
		start := foldState(t, want)
		before := map[odata.ID]string{}
		for _, id := range foldIDs {
			if raw, _, err := want.Get(id); err == nil {
				before[id] = string(raw)
			}
		}
		wantW := watch(want)
		wantAt, wantErr := feed(recs, func(rec Record) error { return parentApply(want, rec) })

		got := foldStore(t)
		gotW := watch(got)
		r := got.Replay()
		gotAt, gotErr := feed(recs, r.Add)
		installed := r.Finish()

		if gotAt != wantAt || (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("fold stopped at %d (%v), record by record at %d (%v)", gotAt, gotErr, wantAt, wantErr)
		}
		if g, w := foldState(t, got), foldState(t, want); !reflect.DeepEqual(g, w) {
			for k := range w {
				if g[k] != w[k] {
					t.Errorf("%s: fold %q, record by record %q", k, g[k], w[k])
				}
			}
			t.Fatalf("from %v", start)
		}
		if !reflect.DeepEqual(gotW.state, wantW.state) {
			t.Fatalf("watcher state %v, record by record %v", gotW.state, wantW.state)
		}

		// One change per id whose state moved, in its last record's order.
		applied := recs
		if wantAt >= 0 {
			applied = recs[:wantAt]
		}
		var wantLog []Change
		for i := len(applied) - 1; i >= 0; i-- {
			id := applied[i].ID
			if slices.ContainsFunc(wantLog, func(c Change) bool { return c.ID == id }) {
				continue
			}
			old, had := before[id]
			now, _, err := want.Get(id)
			has := err == nil
			switch {
			case had && !has:
				wantLog = append(wantLog, Change{Kind: Removed, ID: id})
			case !had && has:
				wantLog = append(wantLog, Change{Kind: Added, ID: id})
			case had && has && old != string(now):
				wantLog = append(wantLog, Change{Kind: Updated, ID: id})
			default:
				wantLog = append(wantLog, Change{ID: id, Kind: -1}) // a placeholder: nothing to say
			}
		}
		wantLog = slices.DeleteFunc(wantLog, func(c Change) bool { return c.Kind == -1 })
		slices.Reverse(wantLog)
		var gotLog []Change
		for _, c := range gotW.log {
			gotLog = append(gotLog, Change{Kind: c.Kind, ID: c.ID})
		}
		if !slices.Equal(gotLog, wantLog) || installed != len(wantLog) {
			t.Fatalf("fold announced %v (Finish said %d), want %v", gotLog, installed, wantLog)
		}
		for i := 1; i < len(gotW.log); i++ {
			if gotW.log[i].Seq <= gotW.log[i-1].Seq {
				t.Fatalf("change seqs out of order: %+v", gotW.log)
			}
		}
	})
}

// TestReplayFinishesAfterAnError: a record the fold refuses leaves the
// records before it installed and the store unlocked, the way recovery
// used to leave the tree it had applied so far.
func TestReplayFinishesAfterAnError(t *testing.T) {
	s := New()
	r := s.Replay()
	if err := r.Add(Record{Op: OpPut, ID: "/a/1", Raw: json.RawMessage(`{"N":1}`)}); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Record{Op: OpPut, ID: "/a/2", Raw: json.RawMessage(`[1]`)}); !errors.Is(err, ErrBadPayload) {
		t.Fatalf("Add of a non-object = %v, want ErrBadPayload", err)
	}
	if n := r.Finish(); n != 1 {
		t.Fatalf("Finish installed %d ids, want 1", n)
	}
	if ids := s.IDs(); !slices.Equal(ids, []odata.ID{"/a/1"}) {
		t.Fatalf("tree holds %v, want [/a/1]", ids)
	}
}

// churn is n ids created and deleted cycles times over, every record as
// DecodeRecord reads it: the shape of a log of compositions made and
// unmade.
func churn(n, cycles int) []Record {
	var recs []Record
	add := func(rec Record) {
		rec.Seq = uint64(len(recs) + 1)
		frame, err := AppendRecord(nil, rec)
		if err != nil {
			panic(err)
		}
		if rec, ok := DecodeRecord(frame); ok {
			recs = append(recs, rec)
		}
	}
	for c := 0; c < cycles; c++ {
		for i := 0; i < n; i++ {
			id := odata.ID(fmt.Sprintf("/redfish/v1/Systems/%d", i+1))
			add(Record{Op: OpPut, ID: id, Raw: json.RawMessage(fmt.Sprintf(`{"Id":"%d","Cycle":%d}`, i+1, c))})
		}
		for i := 0; i < n; i++ {
			add(Record{Op: OpDelete, ID: odata.ID(fmt.Sprintf("/redfish/v1/Systems/%d", i+1))})
		}
	}
	return recs
}

// TestReplaySupersededAllocs pins what a superseded record costs the
// fold: the copy of a put's bytes, one allocation, and nothing for a
// delete — no entity tag, no index node, no change. (Applied one at a
// time they cost about seven each.) Records are counted in pairs of
// logs that differ only in how many create/delete cycles they run over
// the same ids; what is left of the difference once the fold's per-record
// id list has grown as append grows it is the superseded records' own.
func TestReplaySupersededAllocs(t *testing.T) {
	const ids = 8
	fold := func(recs []Record) float64 {
		return testing.AllocsPerRun(5, func() {
			r := New().Replay()
			for _, rec := range recs {
				if err := r.Add(rec); err != nil {
					t.Fatal(err)
				}
			}
			if n := r.Finish(); n != 0 {
				t.Fatalf("a log that ends where it began installed %d ids", n)
			}
		})
	}
	grow := func(n int) float64 {
		return testing.AllocsPerRun(5, func() {
			var order []touch
			for i := 0; i < n; i++ {
				order = append(order, touch{})
			}
		})
	}
	for _, c := range []struct{ from, to int }{{10, 20}, {20, 100}} {
		short, long := churn(ids, c.from), churn(ids, c.to)
		extra := len(long) - len(short)
		own := fold(long) - fold(short) - (grow(len(long)) - grow(len(short)))
		if want := float64(extra / 2); own != want {
			t.Errorf("%d more superseded records (%d cycles over %d ids, not %d) cost %v allocations, want %v: one per put",
				extra, c.to, ids, c.from, own, want)
		}
	}
}
