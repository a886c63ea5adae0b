// Package dht implements a Chord distributed hash table (Stoica et al.,
// SIGCOMM 2001) as an in-process simulation. It is the P2P lookup and
// storage substrate that the paper's indexing layer sits on: the indexing
// techniques only require that the DHT "is able to find a node n responsible
// for a given key k" and that a key may hold multiple entries (§III-A).
//
// The simulation is message-accurate rather than wall-clock-accurate: every
// inter-node hop is counted, and the byte volume of stored and transferred
// entries is metered, so higher layers can report traffic the way the paper
// does.
package dht

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/telemetry"
)

// Common errors returned by the DHT layer.
var (
	// ErrEmptyNetwork is returned when an operation requires at least one
	// live node.
	ErrEmptyNetwork = errors.New("dht: network has no live nodes")
	// ErrNodeExists is returned when a node with the same identifier is
	// already part of the network.
	ErrNodeExists = errors.New("dht: node already exists")
	// ErrNodeUnknown is returned for operations on an address that is not
	// part of the network.
	ErrNodeUnknown = errors.New("dht: unknown node")
)

// Metrics accumulates substrate-level counters across all operations.
type Metrics struct {
	Lookups       int   // number of FindSuccessor operations
	Hops          int   // total routing hops across lookups
	MaxHops       int   // worst single lookup
	StoreOps      int   // Put operations
	RetrieveOps   int   // Get operations
	BytesShipped  int64 // payload bytes moved between nodes (store+get)
	KeysRehomed   int   // keys transferred during join/leave
	FailoverReads int   // reads served by a replica after owner failure
}

// Network is an in-process Chord overlay. All methods are safe for
// concurrent use.
type Network struct {
	mu      sync.Mutex
	nodes   map[string]*Node // by address
	sorted  []*Node          // sorted by ID, maintained on join/leave
	rng     *rand.Rand
	metrics Metrics
	epoch   uint64 // bumped on membership change; invalidates finger tables
	// hops is nil until Instrument is called; Observe on nil is a no-op,
	// so the lookup path records unconditionally.
	hops *telemetry.Histogram

	// ReplicationFactor is the number of successor replicas (in addition
	// to the owner) that receive copies of each stored entry. Zero
	// disables replication.
	ReplicationFactor int

	// SuccessorListLen is the length of each node's successor list,
	// bounding resilience to simultaneous failures.
	SuccessorListLen int
}

// NewNetwork creates an empty overlay. The seed makes node-identifier
// generation and any randomized routing deterministic.
func NewNetwork(seed int64) *Network {
	return &Network{
		nodes:            make(map[string]*Node),
		rng:              rand.New(rand.NewSource(seed)),
		SuccessorListLen: 8,
	}
}

// Size returns the number of live nodes.
func (n *Network) Size() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.nodes)
}

// Metrics returns a snapshot of the substrate counters.
func (n *Network) Metrics() Metrics {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.metrics
}

// Instrument exports the substrate counters on reg (collector pattern:
// the series read Metrics() at snapshot time) and starts recording a
// per-lookup routing-hop histogram there.
func (n *Network) Instrument(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	n.mu.Lock()
	n.hops = reg.Histogram("dht_lookup_hops",
		"Routing hops taken to resolve the owner of a key.", telemetry.HopBuckets)
	n.mu.Unlock()
	reg.CounterFunc("dht_lookups_total",
		"FindSuccessor operations routed through the substrate.",
		func() float64 { return float64(n.Metrics().Lookups) })
	reg.CounterFunc("dht_store_ops_total",
		"Put operations served by the substrate.",
		func() float64 { return float64(n.Metrics().StoreOps) })
	reg.CounterFunc("dht_retrieve_ops_total",
		"Get operations served by the substrate.",
		func() float64 { return float64(n.Metrics().RetrieveOps) })
	reg.CounterFunc("dht_bytes_shipped_total",
		"Payload bytes moved between nodes (store, get, rehoming).",
		func() float64 { return float64(n.Metrics().BytesShipped) })
	reg.CounterFunc("dht_keys_rehomed_total",
		"Keys transferred during node join and leave.",
		func() float64 { return float64(n.Metrics().KeysRehomed) })
	reg.CounterFunc("dht_failover_reads_total",
		"Reads served by a replica after an owner failure.",
		func() float64 { return float64(n.Metrics().FailoverReads) })
	reg.GaugeFunc("dht_nodes",
		"Live nodes in the simulated overlay.",
		func() float64 { return float64(n.Size()) })
}

// ResetMetrics zeroes the counters (used between experiment phases).
func (n *Network) ResetMetrics() {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.metrics = Metrics{}
}

// Nodes returns the live nodes sorted by ring position. The slice is a copy.
func (n *Network) Nodes() []*Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*Node, len(n.sorted))
	copy(out, n.sorted)
	return out
}

// randomNode draws a live node uniformly with rng, or returns nil when
// the ring is empty. The draw happens under n.mu, which also serializes
// callers that share rng, and indexes the ring in place rather than
// copying it as Nodes does.
func (n *Network) randomNode(rng *rand.Rand) *Node {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.sorted) == 0 {
		return nil
	}
	return n.sorted[rng.Intn(len(n.sorted))]
}

// NodeAt returns the node with the given address.
func (n *Network) NodeAt(addr string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[addr]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeUnknown, addr)
	}
	return node, nil
}

// AddNode creates a node with the given address, inserts it into the ring,
// migrates the keys it now owns, and repairs fingers. It implements the
// Chord join protocol in one synchronous step (the simulation does not need
// gradual stabilization to converge, but Stabilize is also provided).
func (n *Network) AddNode(addr string) (*Node, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[addr]; ok {
		return nil, fmt.Errorf("%w: %s", ErrNodeExists, addr)
	}
	node := newNode(addr)
	n.nodes[addr] = node
	n.insertSorted(node)
	n.rebuildPointers()
	n.migrateToNewNode(node)
	return node, nil
}

// RemoveNode gracefully removes a node: its keys are handed to its
// successor before it departs (write-once data survives, per §IV-C).
func (n *Network) RemoveNode(addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[addr]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, addr)
	}
	if len(n.sorted) > 1 {
		succ := n.successorOf(node)
		for k, entries := range node.store {
			for _, e := range entries {
				succ.putLocal(k, e)
				n.metrics.KeysRehomed++
				n.metrics.BytesShipped += int64(len(e.Value))
			}
		}
	}
	n.deleteNode(node)
	return nil
}

// FailNode abruptly removes a node without migrating its keys, simulating a
// crash. Data survives only if replication is enabled.
func (n *Network) FailNode(addr string) error {
	n.mu.Lock()
	defer n.mu.Unlock()
	node, ok := n.nodes[addr]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNodeUnknown, addr)
	}
	n.deleteNode(node)
	return nil
}

// Populate creates count nodes with generated addresses and returns them.
func (n *Network) Populate(count int) ([]*Node, error) {
	out := make([]*Node, 0, count)
	for i := 0; i < count; i++ {
		node, err := n.AddNode(fmt.Sprintf("node-%04d", i))
		if err != nil {
			return nil, err
		}
		out = append(out, node)
	}
	return out, nil
}

// deleteNode removes the node from all bookkeeping and repairs pointers.
// Callers must hold n.mu.
func (n *Network) deleteNode(node *Node) {
	delete(n.nodes, node.Addr)
	for i, s := range n.sorted {
		if s == node {
			n.sorted = append(n.sorted[:i], n.sorted[i+1:]...)
			break
		}
	}
	n.rebuildPointers()
}

// insertSorted places node into the ID-sorted slice. Callers hold n.mu.
func (n *Network) insertSorted(node *Node) {
	i := sort.Search(len(n.sorted), func(i int) bool {
		return n.sorted[i].ID.Cmp(node.ID) >= 0
	})
	n.sorted = append(n.sorted, nil)
	copy(n.sorted[i+1:], n.sorted[i:])
	n.sorted[i] = node
}

// successorOf returns the live node that immediately follows node on the
// ring. Callers hold n.mu and guarantee at least two nodes.
func (n *Network) successorOf(node *Node) *Node {
	i := sort.Search(len(n.sorted), func(i int) bool {
		return n.sorted[i].ID.Cmp(node.ID) >= 0
	})
	// n.sorted[i] == node; its successor is the next slot, wrapping.
	return n.sorted[(i+1)%len(n.sorted)]
}

// rebuildPointers recomputes successors, predecessors and successor lists
// from the sorted membership view, and invalidates every node's finger
// table by bumping the membership epoch (fingers are rebuilt lazily on the
// next lookup that needs them). Callers hold n.mu.
//
// A production Chord converges to these pointers through periodic
// stabilization; the simulation computes the fixed point directly, then the
// Stabilize method can verify/repair incrementally in churn tests.
func (n *Network) rebuildPointers() {
	n.epoch++
	count := len(n.sorted)
	if count == 0 {
		return
	}
	for i, node := range n.sorted {
		node.successor = n.sorted[(i+1)%count]
		node.predecessor = n.sorted[(i-1+count)%count]
		node.succList = node.succList[:0]
		for j := 1; j <= n.SuccessorListLen && j < count; j++ {
			node.succList = append(node.succList, n.sorted[(i+j)%count])
		}
	}
}

// fillFingers populates node's finger table: finger[i] is the successor of
// node.ID + 2^i. Callers hold n.mu.
func (n *Network) fillFingers(node *Node) {
	for i := 0; i < keyspace.Bits; i++ {
		start := node.ID.Add(uint(i))
		node.fingers[i] = n.ownerOfLocked(start)
	}
	node.fingerEpoch = n.epoch
}

// fingersOf returns node's finger table, rebuilding it first if membership
// changed since it was last computed. Callers hold n.mu.
func (n *Network) fingersOf(node *Node) *[keyspace.Bits]*Node {
	if node.fingerEpoch != n.epoch {
		n.fillFingers(node)
	}
	return &node.fingers
}

// ownerOfLocked returns the node responsible for key (its successor on the
// ring). Callers hold n.mu (read or write).
func (n *Network) ownerOfLocked(key keyspace.Key) *Node {
	i := sort.Search(len(n.sorted), func(i int) bool {
		return n.sorted[i].ID.Cmp(key) >= 0
	})
	if i == len(n.sorted) {
		i = 0 // wrap: key is past the highest ID
	}
	return n.sorted[i]
}

// migrateToNewNode moves the keys the new node now owns from its successor.
// Callers hold n.mu.
func (n *Network) migrateToNewNode(node *Node) {
	if len(n.sorted) < 2 {
		return
	}
	succ := node.successor
	pred := node.predecessor
	for k, entries := range succ.store {
		if k.Between(pred.ID, node.ID) {
			for _, e := range entries {
				node.putLocal(k, e)
				n.metrics.KeysRehomed++
				n.metrics.BytesShipped += int64(len(e.Value))
			}
			delete(succ.store, k)
		}
	}
}
