// Package agenttest holds the equivalence harness the provisioning
// agents' tests share: handler ops publish only the resources they
// touched, a full Publish rebuilds the whole subtree, and the two must
// leave the OFMF tree in exactly the same state.
package agenttest

import (
	"bytes"
	"math/rand"
	"testing"

	"ofmf/internal/odata"
	"ofmf/internal/service"
	"ofmf/internal/store"
)

// Twins drives two identically built agent+service pairs through one
// sequence of service operations. The subject relies on what its
// handler ops publish; the twin additionally full-publishes after every
// operation, so its tree is by construction what reconciliation yields.
type Twins struct {
	t              *testing.T
	subject, twin  *service.Service
	publishSubject func() error
	publishTwin    func() error
	changed        []odata.ID // subject watcher callbacks since the last reset

	// Accepted and Rejected count Both's outcomes by kind, so a test can
	// require that its random sequence exercised both for every kind.
	Accepted, Rejected map[string]int
}

// nopBackend makes Store.Seq advance with every logged record.
type nopBackend struct{}

func (nopBackend) Append([]store.Record) func() error { return nil }
func (nopBackend) Close() error                       { return nil }

// NewTwins pairs two started agents' services with the functions that
// full-publish them.
func NewTwins(t *testing.T, subject *service.Service, publishSubject func() error, twin *service.Service, publishTwin func() error) *Twins {
	tw := &Twins{t: t, subject: subject, twin: twin, publishSubject: publishSubject, publishTwin: publishTwin,
		Accepted: map[string]int{}, Rejected: map[string]int{}}
	subject.Store().AttachBackend(nopBackend{}, 0)
	subject.Store().Watch(func(c store.Change) { tw.changed = append(tw.changed, c.ID) })
	return tw
}

// Both runs op (of the given kind, for coverage counting) against the
// subject and then the twin, requires the same outcome from both (the
// same URI, or a rejection from both), and then checks the equivalence:
// a full Publish of the subject changes nothing — no watcher callback,
// no logged record — and the subject's tree is byte-identical to the
// twin's. It returns the URI and whether the operation was accepted.
func (tw *Twins) Both(kind, step string, op func(svc *service.Service) (odata.ID, error)) (odata.ID, bool) {
	tw.t.Helper()
	step = kind + " " + step
	uri, err := op(tw.subject)
	twinURI, twinErr := op(tw.twin)
	if (err == nil) != (twinErr == nil) || uri != twinURI {
		tw.t.Fatalf("%s: subject (%q, %v) and twin (%q, %v) disagree", step, uri, err, twinURI, twinErr)
	}
	if err := tw.publishTwin(); err != nil {
		tw.t.Fatalf("%s: twin publish: %v", step, err)
	}
	seq := tw.subject.Store().Seq()
	tw.changed = tw.changed[:0]
	if err := tw.publishSubject(); err != nil {
		tw.t.Fatalf("%s: subject publish: %v", step, err)
	}
	if got := tw.subject.Store().Seq(); got != seq || len(tw.changed) != 0 {
		tw.t.Fatalf("%s (err=%v): the handler op left work for a full Publish: %d records, changes %v",
			step, err, got-seq, tw.changed)
	}
	want, werr := tw.twin.Store().Export()
	got, gerr := tw.subject.Store().Export()
	if werr != nil || gerr != nil {
		tw.t.Fatalf("%s: export: %v / %v", step, werr, gerr)
	}
	if !bytes.Equal(got, want) {
		tw.t.Fatalf("%s (err=%v): subject tree differs from the full-publishing twin's:\n%s", step, err, firstDiff(got, want))
	}
	if err != nil {
		tw.Rejected[kind]++
	} else {
		tw.Accepted[kind]++
	}
	return uri, err == nil
}

// RequireCoverage fails the test unless every kind of operation was
// both accepted and rejected at least once.
func (tw *Twins) RequireCoverage(kinds ...string) {
	tw.t.Helper()
	for _, k := range kinds {
		if tw.Accepted[k] == 0 || tw.Rejected[k] == 0 {
			tw.t.Errorf("%s: %d accepted, %d rejected; the sequence must exercise both", k, tw.Accepted[k], tw.Rejected[k])
		}
	}
}

// firstDiff shows the neighbourhood of the first differing byte.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	clip := func(b []byte) []byte { return b[max(0, i-200):min(len(b), i+200)] }
	return "subject: …" + string(clip(got)) + "…\ntwin:    …" + string(clip(want)) + "…"
}

// Pick returns a random element of ids — or bogus once in a while, and
// always when there is nothing to pick, so that requests naming things
// that do not exist are part of every sequence.
func Pick(rng *rand.Rand, ids []odata.ID, bogus odata.ID) odata.ID {
	if len(ids) == 0 || rng.Intn(6) == 0 {
		return bogus
	}
	return ids[rng.Intn(len(ids))]
}

// Remove returns ids without id.
func Remove(ids []odata.ID, id odata.ID) []odata.ID {
	for i, x := range ids {
		if x == id {
			return append(ids[:i], ids[i+1:]...)
		}
	}
	return ids
}
