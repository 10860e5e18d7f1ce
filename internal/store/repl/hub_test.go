package repl

import (
	"errors"
	"testing"

	"ofmf/internal/store"
)

// batch builds a contiguous record batch first..first+n-1.
func batch(first uint64, n int) []store.Record {
	recs := make([]store.Record, n)
	for i := range recs {
		recs[i] = store.Record{Seq: first + uint64(i), Op: store.OpDelete, ID: "/x"}
	}
	return recs
}

func TestHubOfferInOrderGrowsBacklog(t *testing.T) {
	h := NewHub(HubConfig{Epoch: 1, StartSeq: 10, Logger: quietLogger()})
	_, state, wake := h.ReadFrom(10, 100)
	if state != readOK || wake == nil {
		t.Fatalf("caught-up read: state=%v wake=%v, want a wait channel", state, wake)
	}
	h.Offer(batch(11, 3))
	h.Offer(batch(14, 1))
	select {
	case <-wake:
	default:
		t.Fatal("Offer did not wake the parked reader")
	}
	if got := h.LastSeq(); got != 14 {
		t.Fatalf("LastSeq = %d, want 14", got)
	}
	recs, state, _ := h.ReadFrom(11, 100)
	if state != readOK || len(recs) != 3 || recs[0].Seq != 12 || recs[2].Seq != 14 {
		t.Fatalf("ReadFrom(11) = %v (state %v), want seqs 12..14", recs, state)
	}
	if h.Fenced() {
		t.Fatal("in-order offers fenced the hub")
	}
}

func TestHubRingTrim(t *testing.T) {
	h := NewHub(HubConfig{Epoch: 1, RingSize: 8, Logger: quietLogger()})
	for seq := uint64(1); seq <= 20; seq += 2 {
		h.Offer(batch(seq, 2))
	}
	first := h.RingFirst()
	if first <= 1 || h.LastSeq()-first+1 > 8 {
		t.Fatalf("backlog holds %d..%d with RingSize 8", first, h.LastSeq())
	}
	if _, state, _ := h.ReadFrom(0, 100); state != readGap {
		t.Fatalf("read below the trimmed backlog: state=%v, want readGap", state)
	}
	recs, state, _ := h.ReadFrom(first-1, 100)
	if state != readOK || len(recs) == 0 || recs[0].Seq != first || recs[len(recs)-1].Seq != 20 {
		t.Fatalf("ReadFrom(%d) = %d records (state %v), want %d..20", first-1, len(recs), state, first)
	}
}

// An out-of-order batch is a fault, not something to reassemble: the
// hub ships nothing from it, fences, and fails semi-sync waits.
func TestHubOfferOutOfOrderFences(t *testing.T) {
	cases := map[string][]store.Record{
		"skips ahead":       batch(3, 1),
		"replays old":       batch(1, 1),
		"hole inside batch": {{Seq: 2}, {Seq: 4}},
	}
	for name, bad := range cases {
		t.Run(name, func(t *testing.T) {
			h := NewHub(HubConfig{Epoch: 5, Logger: quietLogger()})
			h.Offer(batch(1, 1))
			h.Offer(bad)
			if !h.Fenced() || h.FencedBy() != 5 {
				t.Fatalf("fenced=%v by=%d, want fenced by the hub's own epoch", h.Fenced(), h.FencedBy())
			}
			if got := h.LastSeq(); got != 1 {
				t.Fatalf("LastSeq = %d after a rejected batch, want 1", got)
			}
			if err := h.WaitAcked(1); !errors.Is(err, ErrFenced) {
				t.Fatalf("WaitAcked on the fenced hub = %v, want ErrFenced", err)
			}
			h.Offer(batch(2, 1)) // ignored: the hub is done
			if got := h.LastSeq(); got != 1 {
				t.Fatalf("fenced hub accepted a batch: LastSeq = %d", got)
			}
		})
	}
}
