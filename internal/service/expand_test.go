package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/store/persist"
)

// referenceExpanded is the reply $expand gave before it spliced: every
// member round-tripped through encoding/json as a json.RawMessage. The
// equivalence test keeps it as the reference implementation.
func referenceExpanded(t *testing.T, svc *Service, coll odata.ID, expand string, skip, top int) []byte {
	t.Helper()
	type expanded struct {
		ODataID   odata.ID          `json:"@odata.id"`
		ODataType string            `json:"@odata.type"`
		Name      string            `json:"Name"`
		Count     int               `json:"Members@odata.count"`
		Members   []json.RawMessage `json:"Members"`
		NextLink  string            `json:"Members@odata.nextLink,omitempty"`
	}
	c, err := svc.Store().Collection(coll)
	if err != nil {
		t.Fatal(err)
	}
	out := expanded{ODataID: c.ODataID, ODataType: c.ODataType, Name: c.Name, Count: c.Count, Members: []json.RawMessage{}}
	page := c.Members
	if skip > 0 || top > 0 {
		if skip > len(page) {
			skip = len(page)
		}
		end := len(page)
		if top > 0 && skip+top < end {
			end = skip + top
			out.NextLink = fmt.Sprintf("%s?$skip=%d&$top=%d&$expand=%s", coll, end, top, expand)
		}
		page = page[skip:end]
	}
	for _, ref := range page {
		raw, _, err := svc.Store().Get(ref.ODataID)
		if err != nil {
			t.Fatal(err)
		}
		out.Members = append(out.Members, raw)
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// awkward strings a payload may legally carry: the HTML-sensitive bytes
// encoding/json escapes, the two line separators it escapes, quotes,
// backslashes, control bytes, non-ASCII.
var awkward = []string{"<script>", "a&b", "x>y", "\u2028", "\u2029", "say \"hi\"", `back\slash`, "tab\there", "é", "日本", "\x01", "plain"}

func randomPayload(rng *rand.Rand, id odata.ID) map[string]any {
	pick := func() string { return awkward[rng.Intn(len(awkward))] + awkward[rng.Intn(len(awkward))] }
	p := map[string]any{
		"@odata.id": string(id),
		"Id":        id.Leaf(),
		"Name":      pick(),
		"Count":     rng.Intn(1 << 20),
		"Ratio":     rng.Float64() * 1e6,
		"Enabled":   rng.Intn(2) == 0,
		"Nothing":   nil,
		"Oem":       map[string]any{pick(): pick(), "List": []any{pick(), rng.Intn(9), map[string]any{"k": pick()}}},
	}
	return p
}

// sloppy renders v the way a careless client would: indented, HTML bytes
// left raw. Every ingest route must store the canonical form regardless.
func sloppy(t *testing.T, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent(" ", "\t")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestExpandSpliceEquivalence is the property behind the $expand
// splice: whatever route a payload took into the tree — Put,
// PutSubtree, Patch, the Oem subtree endpoint (indented, raw <>&), WAL
// recovery, admin restore — the spliced reply is byte-identical to the
// reference that re-encodes every member, for the unpaged form, for
// every $top/$skip page (the continuation link keeping $expand), and
// for an empty collection.
func TestExpandSpliceEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			dir := t.TempDir()
			backend, err := persist.Open(persist.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			a, srvA := newTestServer(t, Config{})
			stats, err := backend.Recover(a.Store())
			if err != nil {
				t.Fatal(err)
			}
			a.Store().AttachBackend(backend, stats.LastSeq)

			n := 3 + rng.Intn(10)
			for i := 0; i < n; i++ {
				id := SystemsURI.Append(fmt.Sprintf("m%02d", i))
				payload := randomPayload(rng, id)
				switch rng.Intn(4) {
				case 0:
					err = a.Store().Put(id, payload)
				case 1:
					err = a.Store().PutSubtree(id, map[odata.ID]any{id: json.RawMessage(sloppy(t, payload))})
				case 2:
					body := fmt.Sprintf(`{"Prefix":%q,"Resources":{%q:%s}}`, id, id, sloppy(t, payload))
					resp, err2 := http.Post(srvA.URL+string(SubtreeOemURI), "application/json", strings.NewReader(body))
					if err2 != nil {
						t.Fatal(err2)
					}
					resp.Body.Close()
					if resp.StatusCode != http.StatusNoContent {
						t.Fatalf("subtree push = %d", resp.StatusCode)
					}
				case 3:
					if err = a.Store().Put(id, map[string]any{"@odata.id": string(id)}); err == nil {
						err = a.Store().Patch(id, payload, "")
					}
				}
				if err != nil {
					t.Fatal(err)
				}
			}

			// b: the same tree recovered from a's WAL. c: restored from
			// a's admin dump.
			if err := a.Store().Close(); err != nil {
				t.Fatal(err)
			}
			b, srvB := newTestServer(t, Config{})
			backendB, err := persist.Open(persist.Options{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			defer backendB.Close()
			if _, err := backendB.Recover(b.Store()); err != nil {
				t.Fatal(err)
			}
			c, srvC := newTestServer(t, Config{})
			_, dump := doJSON(t, http.MethodGet, srvA.URL+string(AdminTreeOemURI), nil, nil)
			resp, err := http.Post(srvC.URL+string(AdminTreeOemURI), "application/json", bytes.NewReader(dump))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNoContent {
				t.Fatalf("admin restore = %d", resp.StatusCode)
			}

			for name, node := range map[string]struct {
				svc *Service
				srv *httptest.Server
			}{"live": {a, srvA}, "recovered": {b, srvB}, "restored": {c, srvC}} {
				check := func(coll odata.ID, query, expand string, skip, top int) (body []byte, next string) {
					t.Helper()
					_, got := doJSON(t, http.MethodGet, node.srv.URL+string(coll)+query, nil, nil)
					want := referenceExpanded(t, node.svc, coll, expand, skip, top)
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: GET %s%s\n got %s\nwant %s", name, coll, query, got, want)
					}
					var page struct {
						NextLink string `json:"Members@odata.nextLink"`
					}
					if err := json.Unmarshal(got, &page); err != nil {
						t.Fatalf("%s: GET %s%s: %v", name, coll, query, err)
					}
					return got, page.NextLink
				}
				check(SystemsURI, "?$expand=.", ".", 0, 0)
				top := 1 + rng.Intn(4)
				skip, pages := rng.Intn(3), 0
				_, next := check(SystemsURI, fmt.Sprintf("?$expand=*&$skip=%d&$top=%d", skip, top), "*", skip, top)
				for next != "" {
					if !strings.Contains(next, "$expand=*") {
						t.Fatalf("%s: continuation %q lost $expand", name, next)
					}
					skip += top
					if pages++; pages > n {
						t.Fatalf("%s: page walk does not end", name)
					}
					_, next = check(SystemsURI, strings.TrimPrefix(next, string(SystemsURI)), "*", skip, top)
				}
				// An empty collection still has its Members array.
				if empty, _ := check(ChassisURI, "?$expand=.", ".", 0, 0); !bytes.Contains(empty, []byte(`"Members":[]`)) {
					t.Fatalf("%s: empty collection lost its Members array: %s", name, empty)
				}
			}

			// A member deleted between the listing and its view: the
			// count drops with it and the reply is still the reference's
			// for the members that remain.
			coll, err := c.Store().Collection(SystemsURI)
			if err != nil {
				t.Fatal(err)
			}
			victim := coll.Members[rng.Intn(len(coll.Members))].ODataID
			if err := c.Store().Delete(victim); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			c.expandedCollection(rec, coll, "")
			if want := referenceExpanded(t, c, SystemsURI, ".", 0, 0); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("raced delete:\n got %s\nwant %s", rec.Body.Bytes(), want)
			}
			if !json.Valid(rec.Body.Bytes()) {
				t.Fatalf("raced delete: reply is not valid JSON: %s", rec.Body.Bytes())
			}
		})
	}
}
