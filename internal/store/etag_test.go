package store

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"ofmf/internal/odata"
)

// TestFirstReadRace: eight goroutines make the first read of one entry
// at once, through every read path that hashes, and all of them get
// odata.EtagRaw of its bytes; so does every read after them. Under
// -race it is also the gate on the tag the first reader stores while
// others load it.
func TestFirstReadRace(t *testing.T) {
	const readers = 8
	s := New()
	for n := 0; n < 50; n++ {
		id := odata.ID(fmt.Sprintf("/redfish/v1/Systems/%d", n))
		if err := s.Put(id, map[string]any{"@odata.id": id, "N": n}); err != nil {
			t.Fatal(err)
		}
		want := odata.EtagRaw(s.eng.entries[id].raw)
		if s.eng.entries[id].tag.Load() != nil {
			t.Fatalf("%s: hashed before any read", id)
		}
		tags := make([]string, readers)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := range readers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				switch g % 4 {
				case 0:
					_ = s.View(id, func(_ json.RawMessage, etag string) { tags[g] = etag })
				case 1:
					_, tags[g], _ = s.Get(id)
				case 2:
					tags[g], _ = s.Etag(id)
				case 3:
					_, tags[g], _ = s.PatchReturning(context.Background(), id, map[string]any{"N": n}, want)
				}
			}()
		}
		close(start)
		wg.Wait()
		for g, tag := range tags {
			if tag != want {
				t.Fatalf("%s: reader %d saw %q, want %q", id, g, tag, want)
			}
		}
		if got, _ := s.Etag(id); got != want {
			t.Fatalf("%s: after the race Etag = %q, want %q", id, got, want)
		}
	}
}

// TestReadersThatDropTheTagHashNothing: GetAs, ViewRaw and a projection
// read an entry's bytes without hashing them.
func TestReadersThatDropTheTagHashNothing(t *testing.T) {
	s := New()
	coll := odata.ID("/redfish/v1/Systems")
	var mu sync.Mutex
	projected := 0
	s.Watch(s.Projection(coll, &mu, func(odata.ID, json.RawMessage) { projected++ }))
	id := coll.Append("1")
	if err := s.Put(id, map[string]any{"Name": "a"}); err != nil {
		t.Fatal(err)
	}
	var v struct{ Name string }
	if err := s.GetAs(id, &v); err != nil || v.Name != "a" {
		t.Fatalf("GetAs = %+v, %v", v, err)
	}
	if err := s.ViewRaw(id, func(raw json.RawMessage) {}); err != nil {
		t.Fatal(err)
	}
	if projected != 1 {
		t.Fatalf("projection applied %d times, want 1", projected)
	}
	if s.eng.entries[id].tag.Load() != nil {
		t.Fatal("a reader that drops the tag hashed the entry")
	}
}
