package repl

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

// The snapshot reply is json.Encoder's line for a snapshotDoc,
//
//	{"Seq":S,"Epoch":E[,"HiWater":{"uri":n,…}],"Resources":{…}}
//
// written by hand around the stored document, which goes out as it is:
// Cut writes it compact and canonical, and a disk snapshot is a document
// a Cut wrote, so the encoder's compaction would leave it byte for byte.
// The follower reads that shape by hand (cutSnapshot) and hands the
// document to the store's own walk; it refuses any other reply.
var (
	snapSeqKey       = []byte(`{"Seq":`)
	snapEpochKey     = []byte(`,"Epoch":`)
	snapHiWaterKey   = []byte(`,"HiWater":`)
	snapResourcesKey = []byte(`,"Resources":`)
	snapTail         = []byte("}\n")
)

// maxSnapshotPresize bounds the buffer a follower allocates up front on
// the leader's Content-Length; a longer reply grows it as it arrives.
const maxSnapshotPresize = 256 << 20

// appendSnapshotHead appends what json.Encoder writes for a snapshotDoc
// before its Resources document.
func appendSnapshotHead(dst []byte, seq, epoch uint64, marks map[odata.ID]int) []byte {
	dst = strconv.AppendUint(append(dst, snapSeqKey...), seq, 10)
	dst = strconv.AppendUint(append(dst, snapEpochKey...), epoch, 10)
	if len(marks) > 0 {
		dst = appendMarks(append(dst, snapHiWaterKey...), marks)
	}
	return append(dst, snapResourcesKey...)
}

// appendMarks appends json.Marshal(marks): keys ascending, each written
// as it is when the encoder would copy it verbatim (store.PlainString).
func appendMarks(dst []byte, marks map[odata.ID]int) []byte {
	keys := make([]odata.ID, 0, len(marks))
	for k := range marks {
		if !store.PlainString(string(k)) {
			b, _ := json.Marshal(marks) // string keys and ints: cannot fail
			return append(dst, b...)
		}
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '"'), k...), `":`...)
		dst = strconv.AppendInt(dst, int64(marks[k]), 10)
	}
	return append(dst, '}')
}

// writeSnapshot writes the snapshot reply, with its length: the head,
// the document as it is, and the encoder's closing brace and newline.
func writeSnapshot(w http.ResponseWriter, seq, epoch uint64, marks map[odata.ID]int, resources []byte) {
	head := appendSnapshotHead(nil, seq, epoch, marks)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(resources)+len(snapTail)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(head); err == nil {
		if _, err = w.Write(resources); err == nil {
			w.Write(snapTail)
		}
	}
}

// readSnapshotBody reads a snapshot reply into one buffer, presized from
// the length the leader declared. The declared length only sizes the
// buffer: the reply is read to its end whatever it says.
func readSnapshotBody(r io.Reader, declared int64) ([]byte, error) {
	size := 0
	if declared > 0 && declared <= maxSnapshotPresize {
		size = int(declared)
	}
	// ReadFrom wants MinRead bytes free before each read, the last too.
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(r)
	return buf.Bytes(), err
}

// cutSnapshot reads a snapshot reply laid out as json.Encoder writes a
// snapshotDoc (see appendSnapshotHead). Resources is the last key, so
// its document runs to the reply's closing brace; it is returned unread,
// for the store's walk. ok is false for any other reply.
func cutSnapshot(body []byte) (doc snapshotDoc, ok bool) {
	p, ok := bytes.CutPrefix(body, snapSeqKey)
	if ok {
		doc.Seq, p, ok = store.CutUint(p)
	}
	if ok {
		p, ok = bytes.CutPrefix(p, snapEpochKey)
	}
	if ok {
		doc.Epoch, p, ok = store.CutUint(p)
	}
	if !ok {
		return snapshotDoc{}, false
	}
	if rest, found := bytes.CutPrefix(p, snapHiWaterKey); found {
		if doc.HiWater, p, ok = cutMarks(rest); !ok {
			return snapshotDoc{}, false
		}
	}
	p, ok = bytes.CutPrefix(p, snapResourcesKey)
	p = bytes.TrimSuffix(p, []byte("\n"))
	if !ok || len(p) == 0 || p[len(p)-1] != '}' {
		return snapshotDoc{}, false
	}
	doc.Resources = p[:len(p)-1]
	return doc, true
}

// cutMarks reads the HiWater object at the start of p and returns the
// rest of p after it. The object as appendMarks writes it by hand is
// read by hand; any other, one with a key the encoder escapes say, is
// json.Decoder's, which reads that one value and stops at its end, so
// the document after it never counts toward the decoder's depth.
func cutMarks(p []byte) (marks map[odata.ID]int, rest []byte, ok bool) {
	if marks, rest, ok = cutPlainMarks(p); ok {
		return marks, rest, true
	}
	dec := json.NewDecoder(bytes.NewReader(p))
	if err := dec.Decode(&marks); err != nil {
		return nil, nil, false
	}
	return marks, p[dec.InputOffset():], true
}

// cutPlainMarks reads {"uri":n,…} with every key printable ASCII and
// unescaped and every mark a non-negative integer.
func cutPlainMarks(p []byte) (marks map[odata.ID]int, rest []byte, ok bool) {
	if p, ok = bytes.CutPrefix(p, []byte("{")); !ok {
		return nil, nil, false
	}
	marks = map[odata.ID]int{}
	if rest, ok = bytes.CutPrefix(p, []byte("}")); ok {
		return marks, rest, true
	}
	for {
		var key odata.ID
		var v uint64
		if key, p, ok = store.CutPlainString(p); ok {
			p, ok = bytes.CutPrefix(p, []byte(":"))
		}
		if ok {
			v, p, ok = store.CutUint(p)
		}
		if !ok || v > math.MaxInt || len(p) == 0 {
			return nil, nil, false
		}
		marks[key] = int(v)
		switch p[0] {
		case ',':
			p = p[1:]
		case '}':
			return marks, p[1:], true
		default:
			return nil, nil, false
		}
	}
}

// installSnapshot replaces st's tree with a snapshot reply and folds in
// its marks, returning the position the reply reflects. The reply must
// be laid out as every leader writes it (cutSnapshot); its document is
// installed where it lies (Store.PutSubtreeCut).
func installSnapshot(st *store.Store, body []byte) (seq, epoch uint64, err error) {
	doc, ok := cutSnapshot(body)
	if !ok {
		return 0, 0, fmt.Errorf("repl: snapshot reply not laid out as json.Encoder writes one: %.64q", body)
	}
	if err = st.PutSubtreeCut(context.Background(), treeRoot, doc.Resources); err != nil {
		return 0, 0, fmt.Errorf("repl: snapshot install: %w", err)
	}
	marks := st.Replay()
	marks.HiWater(doc.HiWater)
	marks.Finish()
	return doc.Seq, doc.Epoch, nil
}
