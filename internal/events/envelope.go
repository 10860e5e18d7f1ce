package events

import (
	"encoding/json"
	"fmt"
	"sync"

	"ofmf/internal/obsv"
	"ofmf/internal/redfish"
)

// envelope carries one publish's event record together with its lazily
// built wire encoding. The encoding is computed at most once per
// publish and shared by every subscription, webhook POST, retry attempt
// and SSE frame of that publish; the only per-subscription variation in
// the Redfish Event payload — the subscriber's Context string — is
// spliced into a copy of the shared bytes without re-marshaling the
// records, and subscriptions with no Context share the base slice
// outright.
type envelope struct {
	rec  redfish.EventRecord
	recs []redfish.EventRecord // single-element slice shared by struct-level sinks
	sc   obsv.SpanContext

	once sync.Once
	head []byte // `{"@odata.type":…,"Id":…,"Name":"OFMF Event"` — Context splices after this
	tail []byte // `,"Events":[…]}` — the marshaled records, the O(payload) part
	base []byte // head+tail: the payload for subscriptions with no Context
	err  error
}

func newEnvelope(rec redfish.EventRecord, sc obsv.SpanContext) *envelope {
	return &envelope{rec: rec, recs: []redfish.EventRecord{rec}, sc: sc}
}

// encode marshals the record list once. onEncode fires on the one
// execution that performs the marshal (the bus's Encodes statistic).
func (e *envelope) encode(onEncode func()) {
	e.once.Do(func() {
		recsJSON, err := json.Marshal(e.recs)
		if err != nil {
			e.err = fmt.Errorf("events: marshal: %w", err)
			return
		}
		if onEncode != nil {
			onEncode()
		}
		idJSON, err := json.Marshal(e.rec.EventID)
		if err != nil {
			e.err = fmt.Errorf("events: marshal id: %w", err)
			return
		}
		// Assemble head and tail as subslices of one buffer so base is
		// contiguous and Context-free deliveries share it with no copy.
		buf := make([]byte, 0, len(recsJSON)+len(idJSON)+64)
		buf = append(buf, `{"@odata.type":"`...)
		buf = append(buf, redfish.TypeEvent...)
		buf = append(buf, `","Id":`...)
		buf = append(buf, idJSON...)
		buf = append(buf, `,"Name":"OFMF Event"`...)
		headLen := len(buf)
		buf = append(buf, `,"Events":`...)
		buf = append(buf, recsJSON...)
		buf = append(buf, '}')
		e.base = buf
		e.head = buf[:headLen]
		e.tail = buf[headLen:]
	})
}

// body returns the wire payload for a subscription whose Context
// encodes as ctxJSON (a JSON string, marshaled once at Subscribe). An
// empty Context returns the shared base bytes (zero copy); otherwise the
// Context member is spliced between the shared head and tail. Callers
// must treat the result as read-only.
func (e *envelope) body(ctxJSON []byte, onEncode func()) ([]byte, error) {
	e.encode(onEncode)
	if e.err != nil {
		return nil, e.err
	}
	if ctxJSON == nil {
		return e.base, nil
	}
	out := make([]byte, 0, len(e.base)+len(ctxJSON)+len(`,"Context":`))
	out = append(out, e.head...)
	out = append(out, `,"Context":`...)
	out = append(out, ctxJSON...)
	out = append(out, e.tail...)
	return out, nil
}

// event builds the struct form for in-process sinks that take a
// redfish.Event. The Events slice is shared across subscriptions; sinks
// must not mutate it.
func (e *envelope) event(subContext string) redfish.Event {
	return redfish.Event{
		ODataType: redfish.TypeEvent,
		ID:        e.rec.EventID,
		Name:      "OFMF Event",
		Context:   subContext,
		Events:    e.recs,
	}
}
