package persist

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ofmf/internal/odata"
	"ofmf/internal/store"
)

const (
	snapPrefix = "snap-"
	snapSuffix = ".json"
	walPrefix  = "wal-"
	walSuffix  = ".log"
	// snapTempSuffix ends the name of a snapshot being written
	// (snap-<random>.tmp) until its rename.
	snapTempSuffix = ".tmp"
	// quarantineSuffix marks WAL segments found after a torn record:
	// recovery refuses to replay them (the tear means they may postdate
	// lost mutations) but preserves their bytes for an operator instead of
	// deleting data that may include acknowledged commits. listSeqs never
	// matches the suffix, so quarantined files are inert until removed by
	// hand.
	quarantineSuffix = ".quarantined"
)

// snapshotFile is the on-disk snapshot format, one JSON document
//
//	{"Seq":N[,"HiWater":{"parent":n,…}],"Resources":{"uri":payload,…}}
//
// a consistent export of the tree (store.Cut's document, verbatim) plus
// the commit sequence number of the last mutation it reflects. Recovery
// skips WAL records with Seq <= Seq. HiWater holds the NextID high-water
// marks the resources do not imply (store.Cut), and is left out when
// there are none, so such a file is byte for byte what versions without
// it wrote; they read one that has it through encoding/json, which skips
// the field.
type snapshotFile struct {
	Seq       uint64           `json:"Seq"`
	HiWater   map[odata.ID]int `json:"HiWater,omitempty"`
	Resources json.RawMessage  `json:"Resources"`
}

const (
	snapSeqKey       = `{"Seq":`
	snapHiWaterKey   = `,"HiWater":`
	snapResourcesKey = `,"Resources":`

	// layoutName is the descriptor of the per-shard-stream layout this
	// repo wrote between its PR 7 and PR 15. Nothing reads it any more.
	layoutName = "layout.json"
)

// refuseLegacyLayout fails on a data dir of the retired sharded layout
// before anything in it is touched.
func refuseLegacyLayout(dir string) error {
	if _, err := os.Stat(filepath.Join(dir, layoutName)); err == nil {
		return fmt.Errorf("persist: %s holds %s, the retired per-shard WAL layout, which this version no longer reads; "+
			"boot it once with a build of commit 347f903 (the last that converts it to one log), then upgrade", dir, layoutName)
	}
	return nil
}

func snapPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", snapPrefix, seq, snapSuffix))
}

func walPath(dir string, start uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%s%016x%s", walPrefix, start, walSuffix))
}

// listSeqs returns the sequence numbers parsed from dir entries named
// <prefix><16-hex-digits><suffix>, ascending. Files that merely resemble
// the pattern are ignored.
func listSeqs(dir, prefix, suffix string) ([]uint64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var seqs []uint64
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
			continue
		}
		hex := strings.TrimSuffix(strings.TrimPrefix(name, prefix), suffix)
		if len(hex) != 16 {
			continue
		}
		n, err := strconv.ParseUint(hex, 16, 64)
		if err != nil {
			continue
		}
		seqs = append(seqs, n)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// writeSnapshot durably installs a snapshot of cut at seq, the document
// store.Cut returns written around as it is: write to a temp file,
// fsync it, rename into place, fsync the directory. A crash at any point
// leaves either the old snapshot set or the complete new file — never a
// partially visible one — plus, before the rename, the temp file, which
// the next Recover deletes.
func (b *FileBackend) writeSnapshot(seq uint64, cut store.Cut) error {
	head := strconv.AppendUint([]byte(snapSeqKey), seq, 10)
	if len(cut.HiWater) > 0 {
		marks, err := json.Marshal(cut.HiWater) // keys sorted
		if err != nil {
			return fmt.Errorf("persist: snapshot marks: %w", err)
		}
		head = append(append(head, snapHiWaterKey...), marks...)
	}
	dir := b.opts.Dir
	tmp, err := os.CreateTemp(dir, snapPrefix+"*"+snapTempSuffix)
	if err != nil {
		return fmt.Errorf("persist: snapshot temp: %w", err)
	}
	defer os.Remove(tmp.Name())
	for _, part := range [][]byte{append(head, snapResourcesKey...), cut.Resources, []byte("}")} {
		if _, err := tmp.Write(part); err != nil {
			tmp.Close()
			return fmt.Errorf("persist: snapshot write: %w", err)
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: snapshot sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: snapshot close: %w", err)
	}
	if b.killPoint != nil {
		b.killPoint("written")
	}
	if err := os.Rename(tmp.Name(), snapPath(dir, seq)); err != nil {
		return fmt.Errorf("persist: snapshot rename: %w", err)
	}
	return syncDir(dir)
}

// readSnapshot splits a snapshot file into its sequence number, its
// high-water marks and its resources document without decoding the
// document: the envelope writeSnapshot (and json.Marshal of a
// snapshotFile before it) writes is recognised by its first and last
// bytes, with only the marks, which come before the document, read by
// encoding/json; anything else is encoding/json's to read. What
// Resources holds is for the caller to check.
func readSnapshot(data []byte) (snap snapshotFile, ok bool) {
	if p, found := bytes.CutPrefix(data, []byte(snapSeqKey)); found {
		seq, p, _ := store.CutUint(p) // no number: p is nil and the next cut fails
		var marks map[odata.ID]int
		if rest, found := bytes.CutPrefix(p, []byte(snapHiWaterKey)); found {
			dec := json.NewDecoder(bytes.NewReader(rest))
			p = nil // unless the marks decode
			if dec.Decode(&marks) == nil {
				p = rest[dec.InputOffset():]
			}
		}
		if p, found = bytes.CutPrefix(p, []byte(snapResourcesKey)); found && len(p) > 1 && p[len(p)-1] == '}' {
			return snapshotFile{Seq: seq, HiWater: marks, Resources: p[:len(p)-1]}, true
		}
	}
	return snap, json.Unmarshal(data, &snap) == nil && len(snap.Resources) > 0
}

// newestSnapshot reads the newest snapshot in dir that accept takes. ok
// is false when there is none. Snapshots that cannot be read or that
// accept refuses are skipped in favour of older ones rather than failing
// the boot.
func newestSnapshot(dir string, accept func(snapshotFile) bool) (snap snapshotFile, ok bool, skipped int, err error) {
	seqs, err := listSeqs(dir, snapPrefix, snapSuffix)
	if err != nil {
		return snapshotFile{}, false, 0, err
	}
	for i := len(seqs) - 1; i >= 0; i-- {
		if data, rerr := os.ReadFile(snapPath(dir, seqs[i])); rerr == nil {
			if snap, ok = readSnapshot(data); ok && accept(snap) {
				return snap, true, skipped, nil
			}
		}
		skipped++
	}
	return snapshotFile{}, false, skipped, nil
}

// loadNewestSnapshot reads the newest snapshot in dir that is a valid
// JSON document.
func loadNewestSnapshot(dir string) (snap snapshotFile, ok bool, skipped int, err error) {
	return newestSnapshot(dir, func(s snapshotFile) bool { return json.Valid(s.Resources) })
}

// removeSnapshotTemps deletes the temp files writeSnapshot leaves when a
// kill stops it before its rename. The rename is a snapshot's commit
// point, so a temp file is never a snapshot; each one is the size of the
// whole tree. Failures are ignored, as removeBelow's are.
func removeSnapshotTemps(dir string) {
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, snapPrefix) && strings.HasSuffix(name, snapTempSuffix) {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// removeBelow deletes files of the given naming family whose sequence
// number is strictly below keep. Removal failures are ignored: stale
// files only cost disk and are retried at the next compaction.
func removeBelow(dir, prefix, suffix string, keep uint64) {
	seqs, err := listSeqs(dir, prefix, suffix)
	if err != nil {
		return
	}
	for _, seq := range seqs {
		if seq < keep {
			os.Remove(filepath.Join(dir, fmt.Sprintf("%s%016x%s", prefix, seq, suffix)))
		}
	}
}

// syncDir fsyncs a directory so renames and creations within it are
// durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
