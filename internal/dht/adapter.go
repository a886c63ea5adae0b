package dht

import (
	"context"
	"fmt"
	"math/rand"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
)

// Overlay adapts a Chord Network to the substrate contract the indexing
// layer consumes. Operations route from a pseudo-randomly chosen live
// node (deterministic in the seed), modeling independent users entering
// the overlay at arbitrary points.
type Overlay struct {
	net *Network
	rng *rand.Rand
}

var (
	_ overlay.Network        = (*Overlay)(nil)
	_ overlay.ContextNetwork = (*Overlay)(nil)
)

// AsOverlay wraps the network. The seed drives contact-point selection.
func AsOverlay(net *Network, seed int64) *Overlay {
	return &Overlay{net: net, rng: rand.New(rand.NewSource(seed))}
}

// start picks a random live contact node (nil lets the network default
// when empty; the routed call will then fail with ErrEmptyNetwork).
func (o *Overlay) start() *Node { return o.net.randomNode(o.rng) }

// Put implements overlay.Network.
func (o *Overlay) Put(key keyspace.Key, e overlay.Entry) (overlay.Route, error) {
	res, err := o.net.Put(o.start(), key, e)
	if err != nil {
		return overlay.Route{}, err
	}
	return overlay.Route{Node: res.Owner.Addr, Hops: res.Hops}, nil
}

// Get implements overlay.Network.
func (o *Overlay) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	entries, res, err := o.net.Get(o.start(), key)
	if err != nil {
		return nil, overlay.Route{}, err
	}
	return entries, overlay.Route{Node: res.Owner.Addr, Hops: res.Hops}, nil
}

// GetCtx implements overlay.ContextNetwork. The simulated network
// computes routes instantaneously, so the budget only gates entry: an
// already-expired context fails fast without touching the ring.
func (o *Overlay) GetCtx(ctx context.Context, key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	if err := ctx.Err(); err != nil {
		return nil, overlay.Route{}, err
	}
	return o.Get(key)
}

// Remove implements overlay.Network.
func (o *Overlay) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	return o.net.Remove(o.start(), key, e)
}

// Addrs implements overlay.Network: live nodes in ring order.
func (o *Overlay) Addrs() []string {
	nodes := o.net.Nodes()
	out := make([]string, len(nodes))
	for i, nd := range nodes {
		out[i] = nd.Addr
	}
	return out
}

// StatsOf implements overlay.Network.
func (o *Overlay) StatsOf(addr string) (overlay.NodeStats, error) {
	nd, err := o.net.NodeAt(addr)
	if err != nil {
		return overlay.NodeStats{}, err
	}
	o.net.mu.Lock()
	defer o.net.mu.Unlock()
	return nodeStatsLocked(nd), nil
}

// Size implements overlay.Network.
func (o *Overlay) Size() int { return o.net.Size() }

// nodeStatsLocked builds the per-node accounting. Callers hold the
// network lock.
func nodeStatsLocked(nd *Node) overlay.NodeStats {
	stats := overlay.NodeStats{
		Keys:          len(nd.store),
		EntriesByKind: make(map[string]int),
		BytesByKind:   make(map[string]int64),
	}
	for _, entries := range nd.store {
		kinds := make(map[string]bool, 2)
		for _, e := range entries {
			stats.EntriesByKind[e.Kind]++
			stats.BytesByKind[e.Kind] += int64(len(e.Value))
			kinds[e.Kind] = true
		}
		// Per-key overhead counted once per kind present under the key,
		// matching Node.StoredBytes.
		for k := range kinds {
			stats.BytesByKind[k] += keyspace.Size
		}
	}
	return stats
}

// String names the substrate in reports.
func (o *Overlay) String() string {
	return fmt.Sprintf("chord(%d nodes)", o.net.Size())
}
