package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/dht"
	"dhtindex/internal/index"
	"dhtindex/internal/overlay"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
	"dhtindex/internal/xpath"
)

const (
	liveNodes   = 8
	liveClients = 2
	// liveStripes is the shipping stripe count of a node's store.
	liveStripes = wire.DefaultStoreStripes
	simNodes    = 500
	simLRU      = 30
)

// fileOf names the file published for corpus article i (popularity
// rank i), as the simulator does.
func fileOf(i int) string { return fmt.Sprintf("article-%05d.pdf", i) }

// client is one user: its own index service and searcher over a shared
// overlay, as each user in the paper runs its own resolver.
type client struct {
	svc      *index.Service
	searcher *index.Searcher
	// net is the client's overlay decorator; nil in untraced runs.
	net *tracedNet
}

func newClient(net overlay.Network, policy cache.Policy, lru int, rec *recorder) (*client, error) {
	c := &client{}
	if rec != nil {
		var err error
		if net, c.net, err = traceNetwork(net, rec); err != nil {
			return nil, err
		}
	}
	c.svc = index.New(net, policy, lru)
	c.searcher = index.NewSearcher(c.svc)
	return c, nil
}

// find runs one directed search, inside an index.find span when traced.
func (c *client) find(q, target xpath.Query) (index.Trace, error) {
	if c.net == nil {
		return c.searcher.Find(q, target)
	}
	s := c.net.rec.root("index.find")
	c.net.cur.Store(s)
	tr, err := c.searcher.FindCtx(withSpan(context.Background(), s), q, target)
	c.net.cur.Store(nil)
	c.net.rec.finish(s, err)
	return tr, err
}

// publish publishes one article with the Simple scheme, inside an
// index.publish span when traced.
func (c *client) publish(file string, a descriptor.Article) error {
	if c.net == nil {
		return c.svc.PublishArticle(file, a, index.Simple)
	}
	s := c.net.rec.root("index.publish")
	c.net.cur.Store(s)
	err := c.svc.PublishArticle(file, a, index.Simple)
	c.net.cur.Store(nil)
	c.net.rec.finish(s, err)
	return err
}

// stack is one built system under test.
type stack struct {
	clients []*client
	// net is the undecorated overlay, for the read-back check.
	net overlay.Network
	// acked lists every publish the system acknowledged.
	mu    sync.Mutex
	acked []int
	// setup is the time the build took: ring boot and convergence (or
	// populate) plus the corpus publish.
	setup time.Duration
	// publishLat holds the set-up publish latencies.
	publishLat latencies
	transport  *wire.TCPTransport
	nodes      []*wire.Node
	stop       func()
}

func (s *stack) ack(i int) {
	s.mu.Lock()
	s.acked = append(s.acked, i)
	s.mu.Unlock()
}

// readBack checks that every acknowledged publish is readable: the
// article's most specific query resolves to its file.
func (s *stack) readBack(articles []descriptor.Article) error {
	s.mu.Lock()
	acked := append([]int(nil), s.acked...)
	s.mu.Unlock()
	for _, i := range acked {
		entries, _, err := s.net.Get(dataset.MSD(articles[i]).Key())
		if err != nil {
			return fmt.Errorf("read back article %d: %w", i, err)
		}
		want := overlay.Entry{Kind: index.KindData, Value: fileOf(i)}
		found := false
		for _, e := range entries {
			if e == want {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("acked publish of article %d (%s) is not readable", i, fileOf(i))
		}
	}
	return nil
}

func (s *stack) close() {
	if s.stop != nil {
		s.stop()
	}
}

// publishAll publishes articles[0:n] split across the stack's clients,
// timing each publish.
func (s *stack) publishAll(articles []descriptor.Article, n int) error {
	var wg sync.WaitGroup
	errs := make([]error, len(s.clients))
	lats := make([]latencies, len(s.clients))
	for ci, c := range s.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := ci; i < n; i += len(s.clients) {
				t := time.Now()
				if err := c.publish(fileOf(i), articles[i]); err != nil {
					errs[ci] = fmt.Errorf("publish article %d: %w", i, err)
					return
				}
				lats[ci] = append(lats[ci], time.Since(t))
				s.ack(i)
			}
		}()
	}
	wg.Wait()
	for ci := range s.clients {
		if errs[ci] != nil {
			return errs[ci]
		}
		s.publishLat = append(s.publishLat, lats[ci]...)
	}
	return nil
}

// buildLive boots an 8-node Chord ring on loopback TCP, waits for it to
// converge and publishes articles[0:preload]. With dataDir set, each
// node's store is a striped durable store (one WAL per stripe) under
// it; otherwise the node's default in-memory striped store. rec, when
// set, wraps the transport, the node stores and the clients' overlays
// in tracing decorators.
func buildLive(articles []descriptor.Article, preload int, seed int64, dataDir string, rec *recorder) (*stack, error) {
	start := time.Now()
	transport := wire.NewTCPTransport()
	var tr wire.Transport = transport
	if rec != nil {
		tr = &tracedTransport{inner: transport, rec: rec}
	}
	// nodeTransport gives node i its transport and the scope its traced
	// handlers and stores share.
	nodeTransport := func() (wire.Transport, *nodeScope) {
		if rec == nil {
			return transport, nil
		}
		scope := newNodeScope()
		return &tracedTransport{inner: transport, rec: rec, scope: scope}, scope
	}
	st := &stack{transport: transport}
	st.stop = func() {
		for _, n := range st.nodes {
			n.Stop()
		}
		transport.CloseConnections()
	}
	cluster := wire.NewCluster(tr, seed, 0)
	for i := 0; i < liveNodes; i++ {
		ntr, scope := nodeTransport()
		store, err := liveStore(dataDir, i, rec, scope)
		if err != nil {
			st.close()
			return nil, err
		}
		n, err := startNode(wire.Config{Transport: ntr, Store: store}, i)
		if err != nil {
			if store != nil {
				_ = store.Close()
			}
			st.close()
			return nil, fmt.Errorf("start node %d: %w", i, err)
		}
		st.nodes = append(st.nodes, n)
		if i > 0 {
			if err := n.Join(st.nodes[0].Addr()); err != nil {
				st.close()
				return nil, fmt.Errorf("join node %d: %w", i, err)
			}
		}
		cluster.Track(n.Addr())
	}
	if err := cluster.WaitConverged(30 * time.Second); err != nil {
		st.close()
		return nil, err
	}
	st.net = cluster
	for c := 0; c < liveClients; c++ {
		cl, err := newClient(cluster, cache.None, 0, rec)
		if err != nil {
			st.close()
			return nil, err
		}
		st.clients = append(st.clients, cl)
	}
	if err := st.publishAll(articles, preload); err != nil {
		st.close()
		return nil, err
	}
	st.setup = time.Since(start)
	return st, nil
}

// basePort is node 0's port. A node's ring ID is the hash of its
// address, so fixed ports give every run the same ring placement; with
// ephemeral ports the arc each node owns, and so its load, would change
// from run to run.
const basePort = 47100

// startNode starts node i on its fixed port, or on an ephemeral one when
// that port is taken.
func startNode(cfg wire.Config, i int) (*wire.Node, error) {
	cfg.Addr = fmt.Sprintf("127.0.0.1:%d", basePort+i)
	if n, err := wire.Start(cfg); err == nil {
		return n, nil
	}
	cfg.Addr = "127.0.0.1:0"
	return wire.Start(cfg)
}

// liveStore builds node i's store: nil (the node's default striped
// in-memory store) for an untraced in-memory ring, else a sharded store
// over per-stripe memory or durable stores, decorated when traced.
func liveStore(dataDir string, i int, rec *recorder, scope *nodeScope) (wire.Store, error) {
	if dataDir == "" && rec == nil {
		return nil, nil
	}
	stripes := make([]wire.Store, liveStripes)
	for k := range stripes {
		if dataDir == "" {
			stripes[k] = &tracedStripe{inner: wire.NewMemStore(), rec: rec, scope: scope}
			continue
		}
		d, err := durable.Open(filepath.Join(dataDir, fmt.Sprintf("node-%d", i), fmt.Sprintf("stripe-%02d", k)), durable.Options{})
		if err != nil {
			for _, s := range stripes[:k] {
				_ = s.Close()
			}
			return nil, err
		}
		if rec == nil {
			stripes[k] = d
		} else {
			stripes[k] = &tracedDurableStripe{tracedStripe{inner: d, rec: rec, scope: scope}, d}
		}
	}
	sharded := wire.NewShardedStore(stripes)
	if rec == nil {
		return sharded, nil
	}
	return &tracedStore{inner: sharded, rec: rec, scope: scope}, nil
}

// buildSim builds the §V-E simulation, as sim.Run does: a simulated
// Chord ring of the given size with every corpus article published
// under the Simple scheme, served by one client with an LRU-30 single
// cache.
func buildSim(articles []descriptor.Article, seed int64, nodes int, rec *recorder) (*stack, error) {
	start := time.Now()
	net := dht.NewNetwork(seed)
	if _, err := net.Populate(nodes); err != nil {
		return nil, err
	}
	ov := dht.AsOverlay(net, seed+2)
	cl, err := newClient(ov, cache.LRU, simLRU, rec)
	if err != nil {
		return nil, err
	}
	st := &stack{clients: []*client{cl}, net: ov}
	if err := st.publishAll(articles, len(articles)); err != nil {
		return nil, err
	}
	st.setup = time.Since(start)
	return st, nil
}
