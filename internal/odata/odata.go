// Package odata provides the OData v4 primitives used by the Redfish and
// Swordfish schemas: identifiers, annotation envelopes, collection payloads
// and ETag generation. Every resource served by the OFMF carries the
// @odata.id / @odata.type annotations defined here.
package odata

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path"
	"sort"
	"strings"
)

// ID is an OData resource identifier: the absolute URI path of a resource
// within the service, e.g. "/redfish/v1/Fabrics/CXL/Switches/1".
type ID string

// String returns the identifier as a plain string.
func (id ID) String() string { return string(id) }

// IsZero reports whether the identifier is empty.
func (id ID) IsZero() bool { return id == "" }

// Parent returns the identifier of the containing collection or resource.
// The parent of a top-level identifier is "/".
//
// An id that is already clean — no "//", no segment starting with ".",
// no trailing "/", which is every id the service mints — has its parent
// cut at its last slash; path.Clean would return that prefix unchanged.
// Anything else goes through path.Dir.
func (id ID) Parent() ID {
	s := string(id)
	if s != "" && s[0] != '.' && s[len(s)-1] != '/' && !strings.Contains(s, "//") && !strings.Contains(s, "/.") {
		if i := strings.LastIndexByte(s, '/'); i > 0 {
			return ID(s[:i])
		}
		return ID("/")
	}
	p := path.Dir(strings.TrimRight(s, "/"))
	if p == "." {
		return ID("/")
	}
	return ID(p)
}

// Leaf returns the final path segment of the identifier.
func (id ID) Leaf() string { return path.Base(string(id)) }

// Append returns a child identifier under id with the given segments.
func (id ID) Append(segments ...string) ID {
	parts := append([]string{string(id)}, segments...)
	return ID(path.Join(parts...))
}

// Under reports whether id is equal to or lexically contained in prefix.
func (id ID) Under(prefix ID) bool {
	if id == prefix {
		return true
	}
	rest, ok := strings.CutPrefix(string(id), strings.TrimRight(string(prefix), "/"))
	return ok && strings.HasPrefix(rest, "/")
}

// Ref is the JSON shape of a reference to another resource: an object with
// a single "@odata.id" member. Redfish uses these for all links.
type Ref struct {
	ODataID ID `json:"@odata.id"`
}

// NewRef builds a reference to the given identifier.
func NewRef(id ID) Ref { return Ref{ODataID: id} }

// RefSlice converts a list of identifiers into reference objects.
func RefSlice(ids []ID) []Ref {
	refs := make([]Ref, len(ids))
	for i, id := range ids {
		refs[i] = NewRef(id)
	}
	return refs
}

// IDsOf extracts the identifiers from a list of references.
func IDsOf(refs []Ref) []ID {
	ids := make([]ID, len(refs))
	for i, r := range refs {
		ids[i] = r.ODataID
	}
	return ids
}

// Resource is the annotation envelope common to every Redfish resource.
// Concrete schema types embed it so that each serialized payload carries
// the mandatory OData annotations.
type Resource struct {
	ODataID   ID     `json:"@odata.id"`
	ODataType string `json:"@odata.type"`
	ODataEtag string `json:"@odata.etag,omitempty"`
	ID        string `json:"Id"`
	Name      string `json:"Name"`
	Desc      string `json:"Description,omitempty"`
}

// NewResource builds the annotation envelope for a resource at uri with the
// given @odata.type and display name. The Redfish "Id" property is derived
// from the final URI segment.
func NewResource(uri ID, odataType, name string) Resource {
	return Resource{
		ODataID:   uri,
		ODataType: odataType,
		ID:        uri.Leaf(),
		Name:      name,
	}
}

// Collection is the payload shape of a Redfish resource collection.
type Collection struct {
	ODataID   ID     `json:"@odata.id"`
	ODataType string `json:"@odata.type"`
	Name      string `json:"Name"`
	Count     int    `json:"Members@odata.count"`
	Members   []Ref  `json:"Members"`
}

// NewCollection builds a collection payload for the given member ids. The
// members are sorted lexically so payloads are deterministic.
func NewCollection(uri ID, odataType, name string, members []ID) Collection {
	sorted := make([]ID, len(members))
	copy(sorted, members)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return Collection{
		ODataID:   uri,
		ODataType: odataType,
		Name:      name,
		Count:     len(sorted),
		Members:   RefSlice(sorted),
	}
}

// Etag computes a strong entity tag for an arbitrary JSON-serializable
// value. The tag is stable across runs for identical content.
func Etag(v any) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("odata: etag marshal: %w", err)
	}
	return EtagRaw(b), nil
}

// EtagRaw computes the entity tag of already-canonical JSON bytes without
// the marshal round-trip Etag performs. For bytes produced by
// json.Marshal the result is identical to Etag's; it is the hot-path
// variant the resource store uses.
func EtagRaw(raw []byte) string {
	sum := sha256.Sum256(raw)
	var tag [18]byte // a quote, 16 hex digits, a quote
	tag[0], tag[17] = '"', '"'
	hex.Encode(tag[1:17], sum[:8])
	return string(tag[:])
}

// Status is the Redfish Status object reported by most resources.
type Status struct {
	State  string `json:"State,omitempty"`
	Health string `json:"Health,omitempty"`
}

// Common Status.State values.
const (
	StateEnabled      = "Enabled"
	StateDisabled     = "Disabled"
	StateAbsent       = "Absent"
	StateStandbyOff   = "StandbyOffline"
	StateStarting     = "Starting"
	StateUnavailable  = "UnavailableOffline"
	StateQualified    = "Qualified"
	StateDeferring    = "Deferring"
	StateQuiesced     = "Quiesced"
	StateUpdating     = "Updating"
	StateComposed     = "Composed"
	StateComposedAndA = "ComposedAndAvailable"
)

// Common Status.Health values.
const (
	HealthOK       = "OK"
	HealthWarning  = "Warning"
	HealthCritical = "Critical"
)

// StatusOK is the nominal healthy status.
func StatusOK() Status { return Status{State: StateEnabled, Health: HealthOK} }

// Message is a Redfish message object as carried in extended error
// payloads and event records.
type Message struct {
	MessageID   string   `json:"MessageId"`
	Message     string   `json:"Message"`
	Severity    string   `json:"Severity,omitempty"`
	Resolution  string   `json:"Resolution,omitempty"`
	MessageArgs []string `json:"MessageArgs,omitempty"`
}

// Error is the Redfish extended-error payload returned for failed requests.
type Error struct {
	Code    string    `json:"code"`
	Message string    `json:"message"`
	Info    []Message `json:"@Message.ExtendedInfo,omitempty"`
}

// ErrorEnvelope wraps Error in the top-level "error" member mandated by the
// Redfish specification.
type ErrorEnvelope struct {
	Error Error `json:"error"`
}

// NewError builds an extended-error envelope.
func NewError(code, message string, info ...Message) ErrorEnvelope {
	return ErrorEnvelope{Error: Error{Code: code, Message: message, Info: info}}
}
