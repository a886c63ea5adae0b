// Package index implements the paper's primary contribution (§IV): a
// distributed indexing service layered on a DHT that maps broad queries to
// more specific queries. Indexes hold query-to-query mappings (q; qᵢ) with
// q ⊒ qᵢ; by recursively looking up the returned queries a user walks the
// covering partial order down to a most specific descriptor (MSD) and the
// file it identifies.
//
// The package provides the index service itself (Service), the three
// indexing schemes of the evaluation plus the hierarchical example of
// Fig. 4 (Scheme), the directed and automated lookup procedures with the
// generalization/specialization fallback (Searcher), and index maintenance
// with recursive cleanup (§IV-C).
package index

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"sync"

	"dhtindex/internal/cache"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/xpath"
)

// Entry kinds in the DHT store.
const (
	// KindIndex marks a query-to-query mapping; the value is the covered
	// query's canonical form.
	KindIndex = "index"
	// KindData marks a stored file reference; the value is the file name.
	KindData = "data"
)

// Errors returned by the index layer.
var (
	// ErrNotCovering is returned when inserting a mapping (q; qi) whose
	// covering requirement q ⊒ qi does not hold — the property that makes
	// the system "resilient to arbitrary linking" (§IV-D).
	ErrNotCovering = errors.New("index: mapping source does not cover target")
	// ErrSelfMapping is returned for a mapping from a query to itself.
	ErrSelfMapping = errors.New("index: self mapping is useless")
	// ErrNotFound is returned by directed lookups that exhaust the index
	// without reaching the target.
	ErrNotFound = errors.New("index: target not reachable from query")
)

// Service is the distributed index layered on a DHT network. It also owns
// the per-node shortcut caches of the adaptive caching mechanism (§IV-C) —
// cache entries are node-local state, kept outside the DHT store so that
// the paper's "regular keys" vs "cached keys" accounting stays separate.
type Service struct {
	net      overlay.Network
	policy   cache.Policy
	capacity int

	// mu guards caches and parsed: the parallel search fan-out issues
	// concurrent LookupCtx calls against one service, and the memo table
	// and per-node shortcut stores are its only shared mutable state.
	mu     sync.Mutex
	caches map[string]*cache.Store

	// parsed memoizes canonical-form parsing: stored entries are re-read
	// on every lookup and large result sets would otherwise dominate the
	// simulation's CPU profile.
	parsed map[string]xpath.Query

	// vocabulary, when enabled, registers every published descriptor's
	// values in the field dictionaries used for fuzzy correction (§VI).
	vocabulary bool

	// tel is nil until Instrument is called; its record methods are
	// nil-safe no-ops, keeping the hot paths unconditional.
	tel *svcTelemetry
}

// svcTelemetry holds the index layer's registry instruments.
type svcTelemetry struct {
	lookups      *telemetry.Counter
	finds        *telemetry.Counter
	findFailures *telemetry.Counter
	cacheHits    *telemetry.Counter
	cacheMisses  *telemetry.Counter
	shortcuts    *telemetry.Counter
	evictions    *telemetry.Counter
	genProbes    *telemetry.Counter
	nonIndexed   *telemetry.Counter
	incomplete   *telemetry.Counter
	interactions *telemetry.Histogram
}

// evictionCounter returns the shared LRU-eviction counter (nil when the
// service is uninstrumented).
func (t *svcTelemetry) evictionCounter() *telemetry.Counter {
	if t == nil {
		return nil
	}
	return t.evictions
}

// recordLookup books one lookup(q) primitive (no-op on nil).
func (t *svcTelemetry) recordLookup() {
	if t == nil {
		return
	}
	t.lookups.Inc()
}

// recordShortcut books one installed shortcut entry (no-op on nil).
func (t *svcTelemetry) recordShortcut() {
	if t == nil {
		return
	}
	t.shortcuts.Inc()
}

// recordFind books a completed directed search (no-op on nil).
func (t *svcTelemetry) recordFind(trace Trace, err error) {
	if t == nil {
		return
	}
	t.finds.Inc()
	t.genProbes.Add(int64(trace.GeneralizationProbes))
	if trace.NonIndexed {
		t.nonIndexed.Inc()
	}
	if trace.Incomplete {
		t.incomplete.Inc()
	}
	if err != nil || !trace.Found {
		t.findFailures.Inc()
		return
	}
	t.interactions.Observe(float64(trace.Interactions))
	if trace.CacheHit {
		t.cacheHits.Inc()
	} else {
		t.cacheMisses.Inc()
	}
}

// New creates an index service over any substrate satisfying the overlay
// contract (Chord via dht.AsOverlay, Pastry via pastry.AsOverlay, ...).
// policy and lruCapacity configure the shortcut caches (capacity is used
// only with cache.LRU).
func New(net overlay.Network, policy cache.Policy, lruCapacity int) *Service {
	return &Service{
		net:      net,
		policy:   policy,
		capacity: lruCapacity,
		caches:   make(map[string]*cache.Store),
		parsed:   make(map[string]xpath.Query),
	}
}

// Instrument starts publishing the index layer's counters and the
// interactions-per-query histogram on reg. The optional labels (e.g.
// telemetry.L("scheme", "super")) distinguish services sharing one
// registry. Instrument is not safe to call concurrently with lookups;
// call it once at setup time.
func (s *Service) Instrument(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		return
	}
	s.tel = &svcTelemetry{
		lookups: reg.Counter("index_lookups_total",
			"lookup(q) primitives issued against the distributed index.", labels...),
		finds: reg.Counter("index_finds_total",
			"Directed searches started (Searcher.Find).", labels...),
		findFailures: reg.Counter("index_find_failures_total",
			"Directed searches that failed to retrieve their target.", labels...),
		cacheHits: reg.Counter("index_cache_hits_total",
			"Successful searches short-circuited by a shortcut cache.", labels...),
		cacheMisses: reg.Counter("index_cache_misses_total",
			"Successful searches that walked the index without a shortcut.", labels...),
		shortcuts: reg.Counter("index_shortcuts_installed_total",
			"Shortcut cache entries created after successful searches.", labels...),
		evictions: reg.Counter("cache_evictions_total",
			"Shortcut entries displaced by the LRU replacement policy.", labels...),
		genProbes: reg.Counter("index_generalization_probes_total",
			"Generalization candidates looked up by the fallback.", labels...),
		nonIndexed: reg.Counter("index_non_indexed_queries_total",
			"Queries absent from every index (Table I's recoverable errors).", labels...),
		incomplete: reg.Counter("index_incomplete_lookups_total",
			"Searches degraded to a partial result because a hop failed inside the budget.", labels...),
		interactions: reg.Histogram("index_interactions_per_query",
			"User-system interaction rounds per successful search (Fig. 11).",
			telemetry.InteractionBuckets, labels...),
	}
}

// Network returns the underlying substrate.
func (s *Service) Network() overlay.Network { return s.net }

// Policy returns the configured cache policy.
func (s *Service) Policy() cache.Policy { return s.policy }

// Publish stores the file reference under the key of the descriptor's most
// specific query and returns that query. This is the "Publication index" of
// Fig. 5 — the raw DHT storage layer.
func (s *Service) Publish(file string, d descriptor.Descriptor) (xpath.Query, error) {
	msd := xpath.MostSpecific(d)
	if msd.IsZero() {
		return xpath.Query{}, fmt.Errorf("index: publish %q: %w", file, xpath.ErrEmptyQuery)
	}
	if _, err := s.net.Put(msd.Key(), overlay.Entry{Kind: KindData, Value: file}); err != nil {
		return xpath.Query{}, fmt.Errorf("index: publish %q: %w", file, err)
	}
	if s.vocabulary {
		if err := s.RegisterVocabulary(d); err != nil {
			return xpath.Query{}, err
		}
	}
	return msd, nil
}

// InsertMapping adds the index entry (q; target) on the node responsible
// for h(q). It enforces the covering requirement.
func (s *Service) InsertMapping(q, target xpath.Query) error {
	if q.Equal(target) {
		return fmt.Errorf("%w: %s", ErrSelfMapping, q)
	}
	if !q.Covers(target) {
		return fmt.Errorf("%w: (%s ; %s)", ErrNotCovering, q, target)
	}
	if _, err := s.net.Put(q.Key(), overlay.Entry{Kind: KindIndex, Value: target.String()}); err != nil {
		return fmt.Errorf("index: insert (%s ; %s): %w", q, target, err)
	}
	return nil
}

// RemoveMapping deletes the index entry (q; target), reporting whether it
// existed.
func (s *Service) RemoveMapping(q, target xpath.Query) (bool, error) {
	removed, err := s.net.Remove(q.Key(), overlay.Entry{Kind: KindIndex, Value: target.String()})
	if err != nil {
		return false, fmt.Errorf("index: remove (%s ; %s): %w", q, target, err)
	}
	return removed, nil
}

// Response is one user-system interaction: the answer of the node
// responsible for a query's key.
type Response struct {
	// Node is the address of the serving node.
	Node string
	// Hops is the DHT routing distance from the contact point.
	Hops int
	// Index lists the regular index results: queries covered by the asked
	// query, sorted by canonical form.
	Index []xpath.Query
	// Cached lists shortcut targets from the node's adaptive cache, sorted
	// by canonical form.
	Cached []xpath.Query
	// Files lists file references when the asked query is a published MSD,
	// in the order the owner stores them.
	Files []string
	// Bytes is the full serialized response size (the paper's
	// response-driven traffic measure): cache portion, index entries and
	// data references.
	Bytes int64
	// CachePortion is the bytes of the shortcut portion. Responses are
	// two-phase — the (small) cache content is delivered first, and a
	// user that jumps via a shortcut never pulls the index content — so
	// lookups that hit only transfer CachePortion plus data.
	CachePortion int64
}

// Lookup performs one interaction: it routes to the node responsible for
// h(q) and returns everything that node knows about q — index mappings,
// cache shortcuts, and data. This is the paper's "lookup(q)" primitive
// plus the publication-layer read.
func (s *Service) Lookup(q xpath.Query) (Response, error) {
	return s.LookupCtx(context.Background(), q)
}

// LookupCtx is Lookup bounded by the caller's deadline budget. When the
// substrate implements overlay.ContextNetwork the budget is threaded all
// the way into its retry and failover machinery; otherwise an up-front
// ctx check is the best that can be done. Any returned error is
// transport-level (the substrate read is the only error source), which
// is what lets the searcher degrade such failures to partial results.
func (s *Service) LookupCtx(ctx context.Context, q xpath.Query) (Response, error) {
	s.tel.recordLookup()
	var (
		entries []overlay.Entry
		route   overlay.Route
		err     error
	)
	if cn, ok := s.net.(overlay.ContextNetwork); ok {
		entries, route, err = cn.GetCtx(ctx, q.Key())
	} else if err = ctx.Err(); err == nil {
		entries, route, err = s.net.Get(q.Key())
	}
	if err != nil {
		return Response{}, fmt.Errorf("index: lookup %s: %w", q, err)
	}
	resp := Response{Node: route.Node, Hops: route.Hops}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, e := range entries {
		switch e.Kind {
		case KindIndex:
			target, ok := s.parseCachedLocked(e.Value)
			if !ok {
				// A corrupted entry must not poison the lookup.
				continue
			}
			if resp.Index == nil {
				resp.Index = make([]xpath.Query, 0, len(entries))
			}
			resp.Index = append(resp.Index, target)
			resp.Bytes += int64(len(e.Value))
		case KindData:
			if resp.Files == nil {
				resp.Files = make([]string, 0, len(entries))
			}
			resp.Files = append(resp.Files, e.Value)
			resp.Bytes += int64(len(e.Value))
		}
	}
	if store := s.caches[resp.Node]; store != nil {
		for _, tgt := range store.Targets(q.String()) {
			target, ok := s.parseCachedLocked(tgt)
			if !ok {
				continue
			}
			resp.Cached = append(resp.Cached, target)
			resp.CachePortion += int64(len(tgt))
		}
		resp.Bytes += resp.CachePortion
		slices.SortFunc(resp.Cached, byCanonical)
	}
	slices.SortFunc(resp.Index, byCanonical)
	return resp, nil
}

// byCanonical orders queries by canonical form.
func byCanonical(a, b xpath.Query) int {
	return strings.Compare(a.String(), b.String())
}

// parseCached parses a canonical query string through the memo table.
func (s *Service) parseCached(canonical string) (xpath.Query, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parseCachedLocked(canonical)
}

// parseCachedLocked is parseCached with s.mu already held.
func (s *Service) parseCachedLocked(canonical string) (xpath.Query, bool) {
	if q, ok := s.parsed[canonical]; ok {
		return q, !q.IsZero()
	}
	q, err := xpath.Parse(canonical)
	if err != nil {
		s.parsed[canonical] = xpath.Query{} // negative cache
		return xpath.Query{}, false
	}
	s.parsed[canonical] = q
	return q, true
}

// AddShortcut installs the cache entry (q → target) on the given node,
// returning whether a new entry was created and the bytes of cache
// traffic it generated.
func (s *Service) AddShortcut(nodeAddr string, q xpath.Query, target string) (bool, int64) {
	if s.policy == cache.None {
		return false, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	store := s.caches[nodeAddr]
	if store == nil {
		capacity := 0
		if s.policy == cache.LRU {
			capacity = s.capacity
		}
		store = cache.NewStore(capacity)
		store.SetEvictionCounter(s.tel.evictionCounter())
		s.caches[nodeAddr] = store
	}
	if store.Add(q.String(), target) {
		s.tel.recordShortcut()
		return true, int64(len(target))
	}
	return false, 0
}

// TouchShortcut freshens a followed shortcut's LRU recency.
func (s *Service) TouchShortcut(nodeAddr string, q xpath.Query, target string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if store := s.caches[nodeAddr]; store != nil {
		store.Touch(q.String(), target)
	}
}

// CacheStore returns the shortcut store of a node (nil if none exists).
func (s *Service) CacheStore(nodeAddr string) *cache.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.caches[nodeAddr]
}

// CacheStats summarizes the distributed cache state (Fig. 14's metrics).
type CacheStats struct {
	// Nodes is the number of live nodes considered.
	Nodes int
	// TotalKeys is the total number of cached shortcut pairs.
	TotalKeys int
	// MeanKeys is TotalKeys / Nodes.
	MeanKeys float64
	// MaxKeys is the largest per-node cache.
	MaxKeys int
	// FullFraction is the fraction of node caches at capacity (bounded
	// policies only).
	FullFraction float64
	// EmptyFraction is the fraction of nodes with no cached key at all.
	EmptyFraction float64
}

// CacheStats computes Fig. 14's cache-occupancy metrics over live nodes.
func (s *Service) CacheStats() CacheStats {
	addrs := s.net.Addrs()
	stats := CacheStats{Nodes: len(addrs)}
	if stats.Nodes == 0 {
		return stats
	}
	full, empty := 0, 0
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, addr := range addrs {
		store := s.caches[addr]
		if store == nil || store.Len() == 0 {
			empty++
			continue
		}
		n := store.Len()
		stats.TotalKeys += n
		if n > stats.MaxKeys {
			stats.MaxKeys = n
		}
		if store.Full() {
			full++
		}
	}
	stats.MeanKeys = float64(stats.TotalKeys) / float64(stats.Nodes)
	stats.FullFraction = float64(full) / float64(stats.Nodes)
	stats.EmptyFraction = float64(empty) / float64(stats.Nodes)
	return stats
}

// StorageStats summarizes regular (non-cache) storage (§V-B and Fig. 14's
// "regular keys per node").
type StorageStats struct {
	Nodes        int
	IndexEntries int
	DataEntries  int
	IndexBytes   int64
	// MeanEntriesPerNode counts index+data entries per node — the paper's
	// "keys stored per node".
	MeanEntriesPerNode float64
}

// StorageStats computes index storage metrics over live nodes.
func (s *Service) StorageStats() StorageStats {
	addrs := s.net.Addrs()
	stats := StorageStats{Nodes: len(addrs)}
	for _, addr := range addrs {
		ns, err := s.net.StatsOf(addr)
		if err != nil {
			continue // node departed between Addrs and StatsOf
		}
		stats.IndexEntries += ns.EntriesByKind[KindIndex]
		stats.DataEntries += ns.EntriesByKind[KindData]
		stats.IndexBytes += ns.BytesByKind[KindIndex]
	}
	if stats.Nodes > 0 {
		stats.MeanEntriesPerNode = float64(stats.IndexEntries+stats.DataEntries) / float64(stats.Nodes)
	}
	return stats
}
