package index

import (
	"context"
	"fmt"
	"sync"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/xpath"
)

// Searcher drives lookups over an index Service, implementing the user
// behaviour of §IV-B/§V-C: iterative directed search, the generalization/
// specialization fallback for non-indexed queries, shortcut installation
// per the configured cache policy, and the automated exhaustive mode.
type Searcher struct {
	svc *Service

	// MaxDepth bounds the iterative search; the default (16) is far above
	// any chain the schemes build and exists only to stop a corrupted
	// index from looping.
	MaxDepth int

	// AdaptiveIndexing turns on §IV-C's on-demand index entries: after a
	// successful generalization recovery, a *permanent* index mapping
	// (q ; msd) is inserted so other users do not repeat the recovery.
	AdaptiveIndexing bool

	// Recorder, when set, emits one structured telemetry.LookupTrace per
	// Find call: every interaction becomes a hop with its node, latency
	// and cache outcome. A nil recorder disables tracing at zero cost.
	Recorder *telemetry.Recorder

	// Parallelism bounds the concurrent lookups of the automated search
	// mode's frontier expansion and the generalization fallback's probes.
	// Values ≤ 1 keep the exact sequential behaviour (and byte-for-byte
	// accounting) of the paper's model; higher values need a thread-safe
	// substrate (the live wire Cluster and the simulated overlays are).
	Parallelism int

	// FanoutThreshold is the minimum number of pending branches before a
	// parallel wave is launched (default 4). Below it branches are looked
	// up sequentially: a goroutine wave over a near-empty frontier costs
	// more in scheduling and wave-barrier waits than it recovers in I/O
	// overlap, which is what made small-frontier parallel searches slower
	// than sequential ones.
	FanoutThreshold int

	// MaxFanout bounds the number of index nodes the automated search
	// mode visits before giving up (default 100000 — effectively "the
	// whole index" for any realistic corpus, a loop stop for corrupt
	// ones).
	MaxFanout int
}

// parallelism resolves the fan-out bound (≥ 1).
func (s *Searcher) parallelism() int {
	if s.Parallelism > 1 {
		return s.Parallelism
	}
	return 1
}

// fanoutThreshold resolves the adaptive-fanout gate (≥ 1).
func (s *Searcher) fanoutThreshold() int {
	if s.FanoutThreshold > 0 {
		return s.FanoutThreshold
	}
	return 4
}

// waveSize decides how many of the pending branches the next wave looks
// up concurrently: 1 (sequential, no goroutines) while pending is below
// FanoutThreshold, otherwise up to Parallelism.
func (s *Searcher) waveSize(pending int) int {
	par := s.parallelism()
	if par <= 1 || pending < s.fanoutThreshold() {
		return 1
	}
	if par > pending {
		return pending
	}
	return par
}

// NewSearcher creates a searcher over the service.
func NewSearcher(svc *Service) *Searcher {
	return &Searcher{svc: svc, MaxDepth: 16}
}

// Trace reports everything a single directed lookup did — the raw material
// of every figure in §V.
type Trace struct {
	// Found reports whether the target file was retrieved.
	Found bool
	// File is the retrieved file reference.
	File string
	// Interactions is the number of user-system query rounds, including
	// the final data retrieval (Fig. 11).
	Interactions int
	// ResponseBytes is the serialized size of all responses — "normal
	// traffic" in Fig. 12.
	ResponseBytes int64
	// RequestBytes is the serialized size of the queries sent.
	RequestBytes int64
	// CacheBytes is the traffic spent installing shortcuts (Fig. 12's
	// "cache traffic").
	CacheBytes int64
	// Visited lists the addresses of the index nodes contacted, in order
	// (Fig. 15's hot-spot accounting).
	Visited []string
	// CacheHit reports whether any shortcut short-circuited the search
	// (Fig. 13).
	CacheHit bool
	// FirstNodeHit reports whether the shortcut was found on the first
	// node contacted.
	FirstNodeHit bool
	// NonIndexed reports that the original query was absent from every
	// index and the generalization fallback ran — a "recoverable error"
	// (Table I).
	NonIndexed bool
	// GeneralizationProbes counts the generalization candidates looked up
	// during the fallback (the failed original plus the failed probes are
	// the "extra interactions" of §V-h).
	GeneralizationProbes int
	// DHTHops counts underlying substrate routing hops (not interactions).
	DHTHops int
	// Incomplete reports that the search degraded instead of failing: a
	// hop's substrate read failed (dead node, spent deadline budget), so
	// the trace carries whatever was resolved up to that point plus the
	// unresolved branches. An Incomplete trace never has Found set by
	// that failed branch, and Find returns it with a nil error — the
	// partial answer IS the result.
	Incomplete bool
	// Unresolved lists the branches an incomplete search could not
	// resolve and why, in the order they failed.
	Unresolved []Unresolved
}

// Unresolved is one branch a degraded search gave up on.
type Unresolved struct {
	// Query is the canonical query whose lookup failed.
	Query string
	// Reason is the failure (transport error or context deadline).
	Reason string
}

// visit is one lookup step retained for shortcut installation.
type visit struct {
	query xpath.Query
	node  string
}

// Find performs a directed lookup: the user starts from query q, knows how
// to recognize the target (the paper's interactive user always "selects
// the query from the results that matches the target article"), and
// iterates until the file behind target is retrieved. target must be a
// most specific query.
func (s *Searcher) Find(q, target xpath.Query) (Trace, error) {
	return s.FindCtx(context.Background(), q, target)
}

// FindCtx is Find under a deadline budget with graceful degradation.
// The budget rides down through every lookup into the substrate's retry
// and failover machinery. When a hop's substrate read fails — the node
// crashed, or the budget ran out mid-chain — the search does NOT return
// an error: it returns the partial trace with Incomplete set and the
// failed branch recorded in Unresolved, because a degraded answer
// ("found these interactions, could not resolve that branch") is more
// useful than none. Index-semantic misses (ErrNotFound) remain errors.
func (s *Searcher) FindCtx(ctx context.Context, q, target xpath.Query) (trace Trace, err error) {
	if q.IsZero() || target.IsZero() {
		return trace, xpath.ErrEmptyQuery
	}
	at := s.Recorder.Begin(q.String(), target.String())
	defer func() {
		s.svc.tel.recordFind(trace, err)
		at.End(telemetry.TraceResult{
			Found:         trace.Found,
			NonIndexed:    trace.NonIndexed,
			RequestBytes:  trace.RequestBytes,
			ResponseBytes: trace.ResponseBytes,
			CacheBytes:    trace.CacheBytes,
			Err:           err,
		})
	}()
	current := q
	targetStr := target.String()
	var path []visit // index nodes traversed, for shortcut creation

	for depth := 0; depth < s.maxDepth(); depth++ {
		start := time.Now()
		resp, lerr := s.svc.LookupCtx(ctx, current)
		lat := time.Since(start).Microseconds()
		if lerr != nil {
			at.Hop(telemetry.TraceHop{
				Kind: "index", Key: current.String(),
				LatencyMicros: lat, Err: lerr.Error(),
			})
			// Lookup errors are transport-level (dead hop, spent budget):
			// degrade to a partial result instead of erroring out.
			trace.Incomplete = true
			trace.Unresolved = append(trace.Unresolved, Unresolved{
				Query: current.String(), Reason: lerr.Error(),
			})
			return trace, nil
		}
		var hit xpath.Query
		if !current.Equal(target) {
			hit = findEqual(resp.Cached, targetStr)
		}
		s.account(&trace, current, resp, responseCost(resp, hit))
		kind := "index"
		if current.Equal(target) {
			kind = "data"
		} else if !hit.IsZero() {
			kind = "cache-jump"
		}
		at.Hop(telemetry.TraceHop{
			Kind: kind, Key: current.String(), Node: resp.Node,
			CacheHit:      !hit.IsZero(),
			Entries:       len(resp.Index) + len(resp.Cached) + len(resp.Files),
			DHTHops:       resp.Hops,
			LatencyMicros: lat,
		})
		if current.Equal(target) {
			// Publication layer reached: this interaction is the data
			// retrieval itself.
			if len(resp.Files) == 0 {
				return trace, fmt.Errorf("%w: %s has no data", ErrNotFound, target)
			}
			trace.Found = true
			trace.File = resp.Files[0]
			s.installShortcuts(&trace, q, path, targetStr)
			return trace, nil
		}
		path = append(path, visit{query: current, node: resp.Node})

		// Prefer a cached shortcut for the exact target ("jump").
		if !hit.IsZero() {
			trace.CacheHit = true
			if depth == 0 {
				trace.FirstNodeHit = true
			}
			s.svc.TouchShortcut(resp.Node, current, targetStr)
			current = target
			continue
		}
		// Regular index results: follow the most specific entry that still
		// covers the target.
		if next, ok := pickNext(resp.Index, target); ok {
			current = next
			continue
		}
		// Nothing useful here. If this was the original query, run the
		// generalization fallback (§IV-B, §V-h); otherwise the index is
		// broken or the data is gone. An "access to non-indexed data"
		// (Table I) is a query whose key holds nothing at all — a key
		// that already carries cache shortcuts (even for other files
		// matching the same query) no longer errors.
		if depth == 0 {
			trace.NonIndexed = len(resp.Index) == 0 && len(resp.Cached) == 0
			gen, resp, ok, gerr := s.generalize(ctx, &trace, at, q, target)
			if gerr != nil {
				// A failed generalization probe is transport-level too.
				trace.Incomplete = true
				trace.Unresolved = append(trace.Unresolved, Unresolved{
					Query: q.String(), Reason: gerr.Error(),
				})
				return trace, nil
			}
			if ok {
				path = append(path, visit{query: gen, node: resp.Node})
				if hit := findEqual(resp.Cached, targetStr); !hit.IsZero() {
					trace.CacheHit = true
					s.svc.TouchShortcut(resp.Node, gen, targetStr)
					current = target
					continue
				}
				if next, ok2 := pickNext(resp.Index, target); ok2 {
					current = next
					continue
				}
			}
		}
		return trace, fmt.Errorf("%w: stuck at %s", ErrNotFound, current)
	}
	return trace, fmt.Errorf("%w: depth limit from %s", ErrNotFound, q)
}

func (s *Searcher) maxDepth() int {
	if s.MaxDepth > 0 {
		return s.MaxDepth
	}
	return 16
}

// account books one interaction into the trace.
func (s *Searcher) account(trace *Trace, q xpath.Query, resp Response, bytes int64) {
	trace.Interactions++
	trace.ResponseBytes += bytes
	trace.RequestBytes += int64(len(q.String()))
	trace.Visited = append(trace.Visited, resp.Node)
	trace.DHTHops += resp.Hops
}

// responseCost is the bytes a lookup actually transfers. Responses are
// streamed cache-first (most-recently-used shortcuts leading): a user
// whose target is cached stops reading at the matching shortcut and never
// pulls the index content behind it, so a hit consumes only the matched
// entry; a miss consumes the full response (cache portion plus index
// content).
func responseCost(resp Response, hit xpath.Query) int64 {
	if hit.IsZero() {
		return resp.Bytes
	}
	return int64(len(hit.String()))
}

// generalize finds an indexed query g ⊒ q whose index path can reach the
// target, returning g together with the response already obtained from its
// node. It tries the immediate generalizations most-specific-first; the
// failed original lookup already cost one interaction, and each candidate
// probe costs one more — matching the paper's "one extra interaction is
// generally necessary (two in a few rare cases)".
//
// With Parallelism > 1 the candidates are probed in waves: the wave's
// lookups run concurrently, but their outcomes are booked in candidate
// order up to the first decisive one — probes issued speculatively after
// the winner stay unbooked, so the trace's interaction accounting matches
// the sequential walk.
func (s *Searcher) generalize(ctx context.Context, trace *Trace, at *telemetry.Active, q, target xpath.Query) (xpath.Query, Response, bool, error) {
	var cands []xpath.Query
	for _, g := range q.Generalizations() {
		if g.Covers(target) {
			cands = append(cands, g)
		}
	}
	type probe struct {
		resp Response
		err  error
		lat  int64
	}
	for off := 0; off < len(cands); {
		wave := s.waveSize(len(cands) - off)
		batch := cands[off : off+wave]
		off += wave
		outs := make([]probe, len(batch))
		// As in SearchAllCtx, the first probe runs inline on the caller so
		// a wave costs one goroutine hand-off fewer.
		var wg sync.WaitGroup
		for i := 1; i < len(batch); i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				start := time.Now()
				resp, err := s.svc.LookupCtx(ctx, batch[i])
				outs[i] = probe{resp: resp, err: err, lat: time.Since(start).Microseconds()}
			}(i)
		}
		start := time.Now()
		resp0, err0 := s.svc.LookupCtx(ctx, batch[0])
		outs[0] = probe{resp: resp0, err: err0, lat: time.Since(start).Microseconds()}
		wg.Wait()
		for i, g := range batch {
			out := outs[i]
			if out.err != nil {
				at.Hop(telemetry.TraceHop{
					Kind: "generalization", Key: g.String(),
					LatencyMicros: out.lat, Err: out.err.Error(),
				})
				return xpath.Query{}, Response{}, false, out.err
			}
			hit := findEqual(out.resp.Cached, target.String())
			s.account(trace, g, out.resp, responseCost(out.resp, hit))
			trace.GeneralizationProbes++
			at.Hop(telemetry.TraceHop{
				Kind: "generalization", Key: g.String(), Node: out.resp.Node,
				CacheHit:      !hit.IsZero(),
				Entries:       len(out.resp.Index) + len(out.resp.Cached) + len(out.resp.Files),
				DHTHops:       out.resp.Hops,
				LatencyMicros: out.lat,
			})
			if len(out.resp.Index) > 0 || len(out.resp.Cached) > 0 {
				return g, out.resp, true, nil
			}
		}
	}
	return xpath.Query{}, Response{}, false, nil
}

// installShortcuts creates cache entries after a successful lookup,
// according to the policy (§V-D), and — when AdaptiveIndexing is on and
// the query needed the generalization fallback — inserts a permanent
// on-demand index entry.
func (s *Searcher) installShortcuts(trace *Trace, original xpath.Query, path []visit, targetStr string) {
	switch s.svc.Policy() {
	case cache.None:
	case cache.Multi:
		for _, v := range path {
			if v.query.String() == targetStr {
				continue
			}
			if created, bytes := s.svc.AddShortcut(v.node, v.query, targetStr); created {
				trace.CacheBytes += bytes
			}
		}
	case cache.Single, cache.LRU:
		if len(path) > 0 && path[0].query.String() != targetStr {
			if created, bytes := s.svc.AddShortcut(path[0].node, path[0].query, targetStr); created {
				trace.CacheBytes += bytes
			}
		}
	}
	if s.AdaptiveIndexing && trace.NonIndexed && !trace.CacheHit {
		if target, err := xpath.Parse(targetStr); err == nil {
			// Best effort: a covering violation cannot happen here because
			// the directed search only reaches targets the query covers.
			_ = s.svc.InsertMapping(original, target)
		}
	}
}

// findEqual returns the query from list whose canonical form equals s, or
// the zero query.
func findEqual(list []xpath.Query, s string) xpath.Query {
	for _, q := range list {
		if q.String() == s {
			return q
		}
	}
	return xpath.Query{}
}

// pickNext selects the most specific index result that covers the target:
// the user advancing as far down the partial order as the response allows.
func pickNext(results []xpath.Query, target xpath.Query) (xpath.Query, bool) {
	best := xpath.Query{}
	bestConstraints := -1
	for _, r := range results {
		if !r.Covers(target) {
			continue
		}
		if c := r.Constraints(); c > bestConstraints {
			best, bestConstraints = r, c
		}
	}
	return best, bestConstraints >= 0
}
