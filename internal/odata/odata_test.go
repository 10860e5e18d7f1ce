package odata

import (
	"encoding/json"
	"path"
	"strings"
	"testing"
	"testing/quick"
)

func TestIDParent(t *testing.T) {
	cases := []struct {
		in, want ID
	}{
		{"/redfish/v1/Fabrics/CXL/Switches/1", "/redfish/v1/Fabrics/CXL/Switches"},
		{"/redfish/v1", "/redfish"},
		{"/redfish", "/"},
		{"/", "/"},
	}
	for _, c := range cases {
		if got := c.in.Parent(); got != c.want {
			t.Errorf("Parent(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

// FuzzParent holds Parent to the path.Dir expression it shortcuts for
// clean ids, on any string.
func FuzzParent(f *testing.F) {
	for _, seed := range []string{
		"/redfish/v1/Fabrics/CXL/Switches/1", "/redfish", "/", "", "a", "a/b", "/a/", "//a", "/a//b",
		"./a", "../a", ".", "..", "/a/./b", "/a/../b", "/a/.hidden", "/a/b.", "a./b", "/a/b/", "///",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		want := path.Dir(strings.TrimRight(s, "/"))
		if want == "." {
			want = "/"
		}
		if got := ID(s).Parent(); got != ID(want) {
			t.Fatalf("Parent(%q) = %q, path.Dir gives %q", s, got, want)
		}
	})
}

func TestIDLeafAppend(t *testing.T) {
	id := ID("/redfish/v1/Systems")
	child := id.Append("Sys1", "Processors")
	if child != "/redfish/v1/Systems/Sys1/Processors" {
		t.Fatalf("Append = %q", child)
	}
	if child.Leaf() != "Processors" {
		t.Fatalf("Leaf = %q", child.Leaf())
	}
}

func TestIDUnder(t *testing.T) {
	cases := []struct {
		id, prefix ID
		want       bool
	}{
		{"/redfish/v1/Systems/S1", "/redfish/v1/Systems", true},
		{"/redfish/v1/Systems", "/redfish/v1/Systems", true},
		{"/redfish/v1/SystemsExtra", "/redfish/v1/Systems", false},
		{"/redfish/v1", "/redfish/v1/Systems", false},
	}
	for _, c := range cases {
		if got := c.id.Under(c.prefix); got != c.want {
			t.Errorf("Under(%q, %q) = %v, want %v", c.id, c.prefix, got, c.want)
		}
	}
}

func TestIDParentChildRoundTrip(t *testing.T) {
	// Property: for non-empty clean segments, Append then Parent is identity.
	f := func(seg uint8) bool {
		name := "n" + string(rune('a'+seg%26))
		base := ID("/redfish/v1/Chassis")
		return base.Append(name).Parent() == base
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewResource(t *testing.T) {
	r := NewResource("/redfish/v1/Systems/S1", "#ComputerSystem.v1_20_0.ComputerSystem", "Node S1")
	if r.ID != "S1" {
		t.Errorf("ID = %q, want S1", r.ID)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"@odata.id":"/redfish/v1/Systems/S1"`, `"@odata.type":"#ComputerSystem.v1_20_0.ComputerSystem"`, `"Name":"Node S1"`} {
		if !strings.Contains(string(b), want) {
			t.Errorf("marshal missing %s in %s", want, b)
		}
	}
}

func TestNewCollectionSortsMembers(t *testing.T) {
	c := NewCollection("/redfish/v1/Systems", "#ComputerSystemCollection.ComputerSystemCollection",
		"Systems", []ID{"/redfish/v1/Systems/B", "/redfish/v1/Systems/A"})
	if c.Count != 2 {
		t.Fatalf("Count = %d", c.Count)
	}
	if c.Members[0].ODataID != "/redfish/v1/Systems/A" {
		t.Errorf("members not sorted: %v", c.Members)
	}
}

func TestRefSliceIDsOfRoundTrip(t *testing.T) {
	f := func(n uint8) bool {
		ids := make([]ID, n%10)
		for i := range ids {
			ids[i] = ID("/x").Append(string(rune('a' + i)))
		}
		back := IDsOf(RefSlice(ids))
		if len(back) != len(ids) {
			return false
		}
		for i := range ids {
			if back[i] != ids[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEtagStable(t *testing.T) {
	type payload struct{ A, B string }
	e1, err := Etag(payload{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	e2, err := Etag(payload{"x", "y"})
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Errorf("etags differ for identical content: %s vs %s", e1, e2)
	}
	e3, err := Etag(payload{"x", "z"})
	if err != nil {
		t.Fatal(err)
	}
	if e1 == e3 {
		t.Error("etags equal for different content")
	}
	if !strings.HasPrefix(e1, `"`) || !strings.HasSuffix(e1, `"`) {
		t.Errorf("etag not quoted: %s", e1)
	}
}

func TestEtagRejectsUnmarshalable(t *testing.T) {
	if _, err := Etag(make(chan int)); err == nil {
		t.Error("expected error for unmarshalable value")
	}
}

func TestErrorEnvelopeShape(t *testing.T) {
	env := NewError("Base.1.0.GeneralError", "boom", Message{MessageID: "Base.1.0.Oops", Message: "oops"})
	b, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	inner, ok := m["error"].(map[string]any)
	if !ok {
		t.Fatalf("missing error member: %s", b)
	}
	if inner["code"] != "Base.1.0.GeneralError" {
		t.Errorf("code = %v", inner["code"])
	}
	if _, ok := inner["@Message.ExtendedInfo"]; !ok {
		t.Errorf("missing extended info: %s", b)
	}
}

func TestStatusOK(t *testing.T) {
	s := StatusOK()
	if s.State != StateEnabled || s.Health != HealthOK {
		t.Errorf("StatusOK = %+v", s)
	}
}
