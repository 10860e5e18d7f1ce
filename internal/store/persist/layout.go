package persist

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// This file reads the retired per-shard-stream layout: a layout.json
// descriptor at the top of the data dir declaring N > 1 streams, each
// stream's WAL segments under shard-NN/. Nothing writes it any more;
// Recover converts such a directory to the flat one-log layout and
// removes the descriptor.

// layoutFile is the legacy layout descriptor. Its absence means the
// flat layout (every WAL segment at the top level).
type layoutFile struct {
	Version int `json:"Version"`
	Shards  int `json:"Shards"`
}

const (
	layoutName    = "layout.json"
	layoutVersion = 1
	// shardDirFmt names the per-shard WAL directories of a legacy
	// sharded layout. Snapshots were always global, at the top level.
	shardDirFmt = "shard-%02d"
)

// streamDirs returns the directories holding the data dir's WAL
// segments: dir itself for the flat layout, the shard-NN subdirectories
// when a legacy descriptor declares more than one stream.
func streamDirs(dir string) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(dir, layoutName))
	if os.IsNotExist(err) {
		return []string{dir}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("persist: read layout: %w", err)
	}
	var lf layoutFile
	if err := json.Unmarshal(data, &lf); err != nil {
		return nil, fmt.Errorf("persist: parse %s: %w", layoutName, err)
	}
	if lf.Version != layoutVersion {
		return nil, fmt.Errorf("persist: unsupported layout version %d", lf.Version)
	}
	if lf.Shards < 1 {
		return nil, fmt.Errorf("persist: layout declares %d shards", lf.Shards)
	}
	if lf.Shards == 1 {
		return []string{dir}, nil
	}
	dirs := make([]string, lf.Shards)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf(shardDirFmt, i))
	}
	return dirs, nil
}

// removeLayout durably deletes the legacy descriptor: from the next
// boot on the directory is a flat one.
func removeLayout(dir string) error {
	if err := os.Remove(filepath.Join(dir, layoutName)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("persist: remove layout: %w", err)
	}
	return syncDir(dir)
}
