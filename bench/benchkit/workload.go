package benchkit

import (
	"encoding/json"
	"fmt"
	"math/rand"
)

// Kind is one request shape of a workload mix.
type Kind uint8

const (
	Get       Kind = iota // plain resource GET
	CondGet               // GET with If-None-Match, answered 304
	Expand                // GET /redfish/v1/Systems?$expand=. (the uncached encode path)
	Patch                 // PATCH {"Oem":{"Bench":{"Seq":k}}}
	Compose               // POST /composer/v1/Compose
	List                  // plain GET /redfish/v1/Systems right after a membership change
	Decompose             // DELETE /composer/v1/Compositions/{id}
	ReplGet               // GET at the replica of the resource just patched at the leader
	numKinds
)

var kindNames = [numKinds]string{"get", "cond_get", "expand", "patch", "compose", "list", "decompose", "repl_get"}

func (k Kind) String() string { return kindNames[k] }

// Writes reports whether the request mutates the tree, and so waits for
// the disk.
func (k Kind) Writes() bool { return k == Patch || k == Compose || k == Decompose }

// Op is one request of a batch; Target indexes Sizes.Tree().
type Op struct {
	Kind   Kind
	Target int
}

// Sizes fixes how much work a batch and the seeded tree hold. Full() is
// what BENCHMARK.json freezes; the smoke test shrinks it.
type Sizes struct {
	Nodes      int // testbed compute nodes (-nodes)
	Subtrees   int // emulated fabric subtrees pushed at read_tree setup
	PerSubtree int // resources per pushed subtree
	Batch      int // ops (read_tree, write_events), cycles (compose_cycle) or pairs (repl_semisync) per batch
	Null       int // null-server requests after every op segment
	NullWrites int // durable null writes after those, for workloads gated on a mutating op
	Subs       int // webhook subscriptions of write_events; one in eight matches
	// PerSecond is how many batches a run measures per second of
	// -seconds: about nine tenths of what this class of host completes, so
	// that a run's op count — and with it the log a recovery replays — is
	// fixed by the benchmark and not by how fast the host happened to be.
	PerSecond float64
}

// Full returns the frozen sizes of a workload. Batches are sized so an op
// segment lasts 75-200 ms: short enough that the null segment after it
// sees the same host, long enough for a p50.
func Full(workload string) Sizes {
	s := Sizes{Nodes: 64, Null: 200}
	switch workload {
	case "read_tree":
		s.Subtrees, s.PerSubtree, s.Batch, s.PerSecond = 100, 200, 1000, 9
	case "write_events":
		s.Batch, s.Subs, s.PerSecond, s.NullWrites = 50, 64, 6.5, 40
	case "compose_cycle":
		s.Batch, s.PerSecond, s.NullWrites = 10, 7, 40
	case "repl_semisync":
		s.Batch, s.PerSecond, s.NullWrites = 150, 6.5, 40
	}
	return s
}

// Smoke returns sizes small enough for a unit test.
func Smoke(workload string) Sizes {
	s := Full(workload)
	s.Nodes, s.Null, s.NullWrites = 8, 20, min(s.NullWrites, 5)
	switch workload {
	case "read_tree":
		s.Subtrees, s.PerSubtree, s.Batch = 3, 20, 100
	case "write_events":
		s.Batch, s.Subs = 16, 16
	case "compose_cycle":
		s.Batch = 4
	case "repl_semisync":
		s.Batch = 10
	}
	return s
}

// SystemURI is the testbed's i-th compute node (0-based).
func SystemURI(i int) string { return fmt.Sprintf("/redfish/v1/Systems/node%03d", i+1) }

// subtreePrefix is the root of the i-th emulated fabric.
func subtreePrefix(i int) string { return fmt.Sprintf("/redfish/v1/Fabrics/Bench%03d", i) }

// Tree lists every URI the generator reads or patches: the testbed's
// systems first, then the pushed fabric resources.
func (s Sizes) Tree() []string {
	uris := make([]string, 0, s.Nodes+s.Subtrees*s.PerSubtree)
	for i := 0; i < s.Nodes; i++ {
		uris = append(uris, SystemURI(i))
	}
	for i := 0; i < s.Subtrees; i++ {
		uris = append(uris, subtreeURIs(i, s.PerSubtree)...)
	}
	return uris
}

// subtreeURIs shapes a fabric the way the testbed's agents do: the fabric
// root, its switches with their ports, and endpoints for the rest.
func subtreeURIs(i, n int) []string {
	prefix := subtreePrefix(i)
	uris := []string{prefix}
	for sw := 0; len(uris) < n && sw < 8; sw++ {
		swURI := fmt.Sprintf("%s/Switches/S%d", prefix, sw)
		uris = append(uris, swURI)
		for p := 0; len(uris) < n && p < 8; p++ {
			uris = append(uris, fmt.Sprintf("%s/Ports/P%d", swURI, p))
		}
	}
	for e := 0; len(uris) < n; e++ {
		uris = append(uris, fmt.Sprintf("%s/Endpoints/E%03d", prefix, e))
	}
	return uris
}

// SubtreePush is the Oem subtree payload of the i-th fabric: Prefix plus
// one ~340-byte resource per URI, the size of a testbed ComputerSystem.
func (s Sizes) SubtreePush(i int) (prefix string, resources map[string]json.RawMessage) {
	prefix = subtreePrefix(i)
	resources = make(map[string]json.RawMessage, s.PerSubtree)
	for j, uri := range subtreeURIs(i, s.PerSubtree) {
		resources[uri] = json.RawMessage(fmt.Sprintf(
			`{"@odata.id":%q,"@odata.type":"#Endpoint.v1_8_0.Endpoint","Id":"r%d","Name":"bench fabric %d resource %d",`+
				`"EndpointProtocol":"CXL","ConnectedEntities":[{"EntityType":"Processor","EntityRole":"Initiator"}],`+
				`"Status":{"Health":"OK","State":"Enabled"},"Oem":{"Bench":{"Seq":0,"Fabric":%d,"Slot":%d}}}`,
			uri, j, i, j, i, j))
	}
	return prefix, resources
}

// Gen yields a workload's batches; the same (workload, seed, sizes) gives
// the same ops in the same order.
type Gen struct {
	workload string
	sz       Sizes
	rng      *rand.Rand
	nTree    int
	next     int   // write_events: round-robin cursor
	seen     []int // read_tree: targets a plain GET has already fetched
}

// NewGen seeds a generator.
func NewGen(workload string, seed int64, sz Sizes) *Gen {
	g := &Gen{workload: workload, sz: sz, rng: rand.New(rand.NewSource(seed)),
		nTree: sz.Nodes + sz.Subtrees*sz.PerSubtree}
	g.next = g.rng.Intn(sz.Nodes)
	return g
}

// Batch returns the next batch of ops.
func (g *Gen) Batch() []Op {
	n := g.sz.Batch
	switch g.workload {
	case "read_tree":
		return g.readTree(n)
	case "write_events":
		ops := make([]Op, n)
		for i := range ops {
			ops[i] = Op{Patch, g.next}
			g.next = (g.next + 1) % g.sz.Nodes
		}
		return ops
	case "compose_cycle":
		ops := make([]Op, 0, 3*n)
		for i := 0; i < n; i++ {
			ops = append(ops, Op{Kind: Compose}, Op{Kind: List}, Op{Kind: Decompose})
		}
		return ops
	case "repl_semisync":
		ops := make([]Op, 0, 2*n)
		for i := 0; i < n; i++ {
			t := g.rng.Intn(g.sz.Nodes)
			ops = append(ops, Op{Patch, t}, Op{ReplGet, t})
		}
		return ops
	}
	panic("benchkit: unknown workload " + g.workload)
}

// readTree mixes 80 % plain GETs uniform over the tree, 10 % conditional
// GETs, 5 % expands and 5 % PATCHes in a seeded order. A conditional GET
// revalidates a resource an earlier plain GET fetched, as a caching
// client does, so its entity tag is known and the answer is 304.
func (g *Gen) readTree(n int) []Op {
	kinds := make([]Kind, 0, n)
	for i := 0; i < n/10; i++ {
		kinds = append(kinds, CondGet)
	}
	for i := 0; i < n/20; i++ {
		kinds = append(kinds, Expand, Patch)
	}
	for len(kinds) < n {
		kinds = append(kinds, Get)
	}
	g.rng.Shuffle(n, func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	ops := make([]Op, n)
	for i, k := range kinds {
		switch {
		case k == CondGet && len(g.seen) > 0:
			ops[i] = Op{CondGet, g.seen[g.rng.Intn(len(g.seen))]}
		case k == Expand:
			ops[i] = Op{Kind: Expand}
		case k == Patch:
			ops[i] = Op{Patch, g.rng.Intn(g.nTree)}
		default:
			t := g.rng.Intn(g.nTree)
			ops[i] = Op{Get, t}
			if len(g.seen) < 4096 {
				g.seen = append(g.seen, t)
			} else {
				g.seen[g.rng.Intn(len(g.seen))] = t
			}
		}
	}
	return ops
}

// Role says which of a workload's request shapes feed primary_p50_rel
// and secondary_p50_rel. write_events' secondary is not a request but
// the delivery delay, so it has no Kind.
func Role(workload string) (primary Kind, secondary Kind, secondaryIsDelivery bool) {
	switch workload {
	case "read_tree":
		return Get, Expand, false
	case "write_events":
		return Patch, 0, true
	case "compose_cycle":
		return Compose, Decompose, false
	default:
		return Patch, ReplGet, false
	}
}
