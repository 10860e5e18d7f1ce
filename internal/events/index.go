package events

import (
	"ofmf/internal/odata"
	"ofmf/internal/redfish"
)

// snapshot is an immutable inverted index over the subscription set.
// Publish reads it through one atomic load; Subscribe/Unsubscribe build
// a fresh snapshot under the bus mutex and swap the pointer, so the
// publish path never blocks on subscription churn (copy-on-write).
//
// Every subscription lives in exactly one partition, chosen by its
// filter shape, so a single event can reach a subscription through at
// most one partition and cross-partition deduplication is unnecessary:
//
//   - all:       no filter at all — matches every event.
//   - byType:    EventTypes filter only — bucketed under each listed
//     type, so the lookup by the event's type is the whole match.
//   - byOrigin:  Origins filter, Subordinate unset — bucketed under
//     each listed origin; an exact lookup of the event's origin finds
//     them. Any EventTypes filter is checked residually.
//   - byPrefix:  Origins filter with Subordinate set — bucketed under
//     each listed prefix; walking the event origin's ancestor chain
//     (bounded by URI depth, ~6 segments) finds them. A subscription
//     listing nested prefixes can be reached through two ancestors of
//     one origin, so prefix-derived matches are deduplicated against
//     each other (and only each other).
//
// Publish cost is therefore O(matching subscribers + origin depth)
// rather than O(total subscriptions).
type snapshot struct {
	all      []*Subscription
	byType   map[string][]*Subscription
	byOrigin map[odata.ID][]*Subscription
	byPrefix map[odata.ID][]*Subscription
	count    int
}

// buildSnapshot indexes the current subscription set. It is a full
// rebuild — O(n) on the first publish after subscription churn — which
// keeps the structure trivially immutable; subscription churn is orders
// of magnitude rarer than publishes, which pay nothing for it.
func buildSnapshot(subs map[string]*Subscription) *snapshot {
	sn := &snapshot{
		byType:   make(map[string][]*Subscription),
		byOrigin: make(map[odata.ID][]*Subscription),
		byPrefix: make(map[odata.ID][]*Subscription),
		count:    len(subs),
	}
	for _, sub := range subs {
		f := sub.Filter
		switch {
		case len(f.Origins) > 0 && f.Subordinate:
			for _, o := range f.Origins {
				sn.byPrefix[o] = append(sn.byPrefix[o], sub)
			}
		case len(f.Origins) > 0:
			for _, o := range f.Origins {
				sn.byOrigin[o] = append(sn.byOrigin[o], sub)
			}
		case len(f.EventTypes) > 0:
			for _, t := range f.EventTypes {
				sn.byType[t] = append(sn.byType[t], sub)
			}
		default:
			sn.all = append(sn.all, sub)
		}
	}
	return sn
}

// match appends every subscription admitting a record of eventType
// about origin (zero when the record has no OriginOfCondition) to out
// and returns it. With no match and a nil out it allocates nothing.
func (sn *snapshot) match(eventType string, origin odata.ID, out []*Subscription) []*Subscription {
	out = append(out, sn.all...)
	if len(sn.byType) > 0 {
		out = append(out, sn.byType[eventType]...)
	}
	if origin.IsZero() || (len(sn.byOrigin) == 0 && len(sn.byPrefix) == 0) {
		return out
	}
	for _, sub := range sn.byOrigin[origin] {
		if typeMatches(sub.Filter.EventTypes, eventType) {
			out = append(out, sub)
		}
	}
	if len(sn.byPrefix) == 0 {
		return out
	}
	// Walk the origin's ancestor chain; Under() treats a prefix as
	// matching itself, so the walk starts at the origin proper.
	firstPrefix := len(out)
	for p := origin; ; {
		for _, sub := range sn.byPrefix[p] {
			if !typeMatches(sub.Filter.EventTypes, eventType) {
				continue
			}
			dup := false
			for _, m := range out[firstPrefix:] {
				if m == sub {
					dup = true
					break
				}
			}
			if !dup {
				out = append(out, sub)
			}
		}
		parent := p.Parent()
		if parent == p || parent == "." || parent == "" {
			break
		}
		p = parent
	}
	return out
}

// originOf returns the record's OriginOfCondition, or the zero ID.
func originOf(rec redfish.EventRecord) odata.ID {
	if rec.OriginOfCondition == nil {
		return ""
	}
	return rec.OriginOfCondition.ODataID
}

// typeMatches reports whether the (possibly empty, meaning any) type
// list admits t.
func typeMatches(types []string, t string) bool {
	if len(types) == 0 {
		return true
	}
	for _, x := range types {
		if x == t {
			return true
		}
	}
	return false
}
