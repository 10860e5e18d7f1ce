package fleet

import (
	"fmt"
	"sort"

	"ofmf/internal/events"
	"ofmf/internal/odata"
)

// The invariant checkers are pure functions over plain data so they can
// be unit-tested without standing up a fleet; Fleet methods gather the
// inputs and collect the returned violation strings.

// checkSources validates the AggregationSources collection against the
// expected host set: every expected host registered exactly once, no
// duplicate sources for one host, no ghost sources for hosts nobody
// owns. sources maps source URI → HostName as stored.
func checkSources(sources map[odata.ID]string, expectedHosts map[string]bool) []string {
	var v []string
	byHost := make(map[string][]odata.ID, len(sources))
	for uri, host := range sources {
		byHost[host] = append(byHost[host], uri)
	}
	for host, uris := range byHost {
		if len(uris) > 1 {
			sort.Slice(uris, func(i, j int) bool { return uris[i] < uris[j] })
			v = append(v, fmt.Sprintf("duplicate sources for host %s: %v", host, uris))
		}
		if !expectedHosts[host] {
			v = append(v, fmt.Sprintf("ghost source(s) %v for unknown host %q", uris, host))
		}
	}
	for host := range expectedHosts {
		if len(byHost[host]) == 0 {
			v = append(v, fmt.Sprintf("missing source for host %s", host))
		}
	}
	sort.Strings(v)
	return v
}

// storedSource is an AggregationSource as stored: its HostName and its
// claims.
type storedSource struct {
	host   string
	claims []odata.ID
}

// checkClaims asserts one holder per subtree: every subtree a stored
// source claims is claimed by that source alone, and forward (prefix →
// the callback URL the OFMF forwards its operations to) sends it to that
// source's host, and nothing else anywhere.
func checkClaims(sources map[odata.ID]storedSource, forward map[odata.ID]string) []string {
	var v []string
	holders := make(map[odata.ID][]odata.ID)
	for uri, src := range sources {
		for _, c := range src.claims {
			holders[c] = append(holders[c], uri)
		}
	}
	for prefix, uris := range holders {
		if len(uris) > 1 {
			sort.Slice(uris, func(i, j int) bool { return uris[i] < uris[j] })
			v = append(v, fmt.Sprintf("subtree %s claimed by several sources: %v", prefix, uris))
		} else if host := sources[uris[0]].host; forward[prefix] != host {
			v = append(v, fmt.Sprintf("subtree %s of source %s at %s is forwarded to %q", prefix, uris[0], host, forward[prefix]))
		}
	}
	for prefix, url := range forward {
		if len(holders[prefix]) == 0 {
			v = append(v, fmt.Sprintf("ghost forwarding of unclaimed subtree %s to %s", prefix, url))
		}
	}
	sort.Strings(v)
	return v
}

// checkConservation asserts the event bus ledger over one incarnation:
// with subs match-all subscriptions live for the whole window, every
// published record must land in exactly one delivery-outcome counter
// per subscription. base is the stats snapshot taken right after the
// subscriptions were created, end the snapshot after the queues
// quiesced.
func checkConservation(base, end events.Stats, subs int) []string {
	pub := end.Published - base.Published
	delivered := end.Delivered - base.Delivered
	failed := end.Failed - base.Failed
	dropped := end.Dropped - base.Dropped
	closed := end.DroppedClosed - base.DroppedClosed
	accounted := delivered + failed + dropped + closed
	if accounted != pub*int64(subs) {
		return []string{fmt.Sprintf(
			"event conservation broken: published %d × %d subs = %d, accounted %d (delivered %d + failed %d + dropped %d + dropped-closed %d)",
			pub, subs, pub*int64(subs), accounted, delivered, failed, dropped, closed)}
	}
	return nil
}

// checkAgentLedger asserts per-agent event accounting: everything an
// agent emitted is delivered, still spooled, or counted as dropped
// (spool overflow or crash loss) — and what the OFMF received matches
// what the spool claims it delivered, exactly once, in order.
func checkAgentLedger(idx int, emitted int, delivered, dropped int64, backlog int, rcv agentReceipt) []string {
	var v []string
	if int64(emitted) != delivered+dropped+int64(backlog) {
		v = append(v, fmt.Sprintf(
			"agent %05d spool ledger broken: emitted %d != delivered %d + dropped %d + backlog %d",
			idx, emitted, delivered, dropped, backlog))
	}
	if int64(rcv.count) != delivered {
		v = append(v, fmt.Sprintf(
			"agent %05d receipt mismatch: OFMF received %d, spool delivered %d",
			idx, rcv.count, delivered))
	}
	if rcv.dups > 0 {
		v = append(v, fmt.Sprintf("agent %05d: %d duplicate events received", idx, rcv.dups))
	}
	if rcv.orderViols > 0 {
		v = append(v, fmt.Sprintf("agent %05d: %d out-of-order events received", idx, rcv.orderViols))
	}
	return v
}

// checkLiveness diffs the sweeper's converged verdicts against ground
// truth. expected maps each live source URI to the level the harness's
// own heartbeat record implies; got is the sweeper's snapshot.
func checkLiveness(got, expected map[odata.ID]int) []string {
	var v []string
	for uri, want := range expected {
		lvl, ok := got[uri]
		if !ok {
			v = append(v, fmt.Sprintf("sweeper lost source %s (want level %d)", uri, want))
			continue
		}
		if lvl != want {
			v = append(v, fmt.Sprintf("liveness not converged for %s: sweeper %d, ground truth %d", uri, lvl, want))
		}
	}
	for uri := range got {
		if _, ok := expected[uri]; !ok {
			v = append(v, fmt.Sprintf("sweeper tracks ghost source %s", uri))
		}
	}
	sort.Strings(v)
	return v
}
