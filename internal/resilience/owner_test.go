package resilience

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestOneOwnerOfOutboundConnections fails when product code outside
// this package reaches net/http's process-wide client or transport —
// by name, or through the package-level helpers that use them — or
// opens a connection of its own with net.Dial, a net.Dialer, tls.Dial
// or tls.Client. Every such edge would silently get
// http.DefaultTransport's pool of 2 idle connections per host (which
// cost the event bus a dial for every 16 deliveries), or no pool at
// all, and none of a Policy. Build clients with NewHTTPClient /
// Transport or a Poster. The bench module is the load generator, not
// the product, and is frozen between benchmark PRs; tests may use what
// they like.
func TestOneOwnerOfOutboundConnections(t *testing.T) {
	shared := regexp.MustCompile(`\bhttp\.(DefaultTransport|DefaultClient|(Get|Head|Post|PostForm)\()|\bnet\.(Dial|Dialer\{)|\btls\.(Dial|Client\()`)
	root := filepath.Join("..", "..")
	scanned := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "bench" || rel == filepath.Join("internal", "resilience") || (rel != "." && strings.HasPrefix(d.Name(), ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		scanned++
		for i, line := range strings.Split(string(src), "\n") {
			if m := shared.FindString(line); m != "" {
				t.Errorf("%s:%d names %s; outbound connections belong to internal/resilience", rel, i+1, strings.TrimSuffix(m, "("))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 50 {
		t.Fatalf("scanned %d files from %s; the walk is not reaching the tree", scanned, root)
	}
}
