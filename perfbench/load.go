package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/index"
	"dhtindex/internal/workload"
	"dhtindex/internal/xpath"
)

// window is what one measured stretch of load produced.
type window struct {
	elapsed   time.Duration
	queries   samples
	publishes samples
	// lags is how late the generator issued each operation: behind its
	// due time in an open loop, after the previous completion in a
	// closed loop.
	lags       latencies
	attempted  int
	failed     int
	violations []string
	// distinct counts the distinct (structure, target) queries issued;
	// a query is a pure function of the pair.
	distinct int
	proc     procUsage
	counts   passCounts
}

// passCounts sums the index-level outcome of the window's queries, the
// counts that must repeat exactly for one seed.
type passCounts struct {
	Queries, Found, Interactions, Generalized, CacheHits, FirstHits int
	ResponseBytes                                                   int64
}

func (p *passCounts) add(tr index.Trace) {
	p.Queries++
	if !tr.Found {
		return
	}
	p.Found++
	p.Interactions += tr.Interactions
	p.ResponseBytes += tr.ResponseBytes
	if tr.GeneralizationProbes > 0 {
		p.Generalized++
	}
	if tr.CacheHit {
		p.CacheHits++
		if tr.FirstNodeHit {
			p.FirstHits++
		}
	}
}

func (p *passCounts) merge(o passCounts) {
	p.Queries += o.Queries
	p.Found += o.Found
	p.Interactions += o.Interactions
	p.Generalized += o.Generalized
	p.CacheHits += o.CacheHits
	p.FirstHits += o.FirstHits
	p.ResponseBytes += o.ResponseBytes
}

// procUsage is the process's CPU time, allocations and GC pause over a
// window.
type procUsage struct {
	cpu     time.Duration
	mallocs uint64
	gcPause time.Duration
}

func readProc() procUsage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procUsage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: ms.Mallocs,
		gcPause: time.Duration(ms.PauseTotalNs),
	}
}

func (p procUsage) since(before procUsage) procUsage {
	return procUsage{cpu: p.cpu - before.cpu, mallocs: p.mallocs - before.mallocs, gcPause: p.gcPause - before.gcPause}
}

// op is one generated operation: a query for a target article, or the
// publish of a new article.
type op struct {
	publish bool
	article int // the target (query) or the published article
	kind    workload.Structure
	query   xpath.Query
	target  xpath.Query
}

func queryOp(wq workload.Query) op {
	return op{article: wq.Rank, kind: wq.Structure, query: wq.Query, target: dataset.MSD(wq.Target)}
}

// shard is one client's part of a window; merged at the end.
type shard struct {
	queries, publishes samples
	lags               latencies
	attempted, failed  int
	violations         []string
	seen               map[[2]int]bool
	counts             passCounts
}

func newShard() *shard { return &shard{seen: make(map[[2]int]bool)} }

// do runs one operation on c and books its outcome; due is when it was
// meant to start, from which its latency is timed, and t0 the start of
// the window.
func (sh *shard) do(st *stack, c *client, o op, articles []descriptor.Article, due, t0 time.Time) {
	sh.attempted++
	if o.publish {
		err := c.publish(fileOf(o.article), articles[o.article])
		lat := time.Since(due)
		if err != nil {
			sh.failed++
			sh.violations = append(sh.violations, fmt.Sprintf("publish article %d: %v", o.article, err))
			return
		}
		sh.publishes = append(sh.publishes, sample{due.Sub(t0), lat})
		st.ack(o.article)
		return
	}
	sh.seen[[2]int{int(o.kind), o.article}] = true
	tr, err := c.find(o.query, o.target)
	lat := time.Since(due)
	sh.counts.add(tr)
	if err != nil || !tr.Found || tr.File != fileOf(o.article) {
		sh.failed++
		sh.violations = append(sh.violations, fmt.Sprintf("query %s for article %d: found=%v file=%q err=%v",
			o.query, o.article, tr.Found, tr.File, err))
		return
	}
	sh.queries = append(sh.queries, sample{due.Sub(t0), lat})
}

// collect merges the shards into w.
func (w *window) collect(shards []*shard) {
	seen := make(map[[2]int]bool)
	for _, sh := range shards {
		w.queries = append(w.queries, sh.queries...)
		w.publishes = append(w.publishes, sh.publishes...)
		w.lags = append(w.lags, sh.lags...)
		w.attempted += sh.attempted
		w.failed += sh.failed
		w.violations = append(w.violations, sh.violations...)
		w.counts.merge(sh.counts)
		for k := range sh.seen {
			seen[k] = true
		}
	}
	w.distinct = len(seen)
}

// closedLoop runs each client on its own query stream, issuing the next
// query as soon as the previous one returns, until d has passed (or
// limit queries per client, when limit > 0).
func closedLoop(st *stack, streams []func() op, articles []descriptor.Article, d time.Duration, limit int) window {
	shards := make([]*shard, len(st.clients))
	before := readProc()
	start := time.Now()
	end := start.Add(d)
	var wg sync.WaitGroup
	for ci, c := range st.clients {
		shards[ci] = newShard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := shards[ci]
			prev := time.Now()
			for n := 0; limit <= 0 || n < limit; n++ {
				o := streams[ci]()
				now := time.Now()
				if limit <= 0 && now.After(end) {
					return
				}
				sh.lags = append(sh.lags, now.Sub(prev))
				sh.do(st, c, o, articles, now, start)
				prev = time.Now()
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	w.proc = readProc().since(before)
	w.collect(shards)
	return w
}

// openLoop issues ops on a fixed schedule, one every 1/rate seconds,
// across the clients: a client takes the next op, waits until it is
// due and runs it. An op's latency is timed from its due time, so a
// stall also charges the ops queued behind it.
func openLoop(st *stack, ops []op, rate float64, articles []descriptor.Article) window {
	interval := time.Duration(float64(time.Second) / rate)
	shards := make([]*shard, len(st.clients))
	var next atomic.Int64
	before := readProc()
	start := time.Now()
	var wg sync.WaitGroup
	for ci, c := range st.clients {
		shards[ci] = newShard()
		wg.Add(1)
		go func() {
			defer wg.Done()
			sh := shards[ci]
			for {
				i := int(next.Add(1) - 1)
				if i >= len(ops) {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sh.lags = append(sh.lags, time.Since(due))
				sh.do(st, c, ops[i], articles, due, start)
			}
		}()
	}
	wg.Wait()
	w := window{elapsed: time.Since(start)}
	w.proc = readProc().since(before)
	w.collect(shards)
	return w
}

// popularStream is a client's Fig. 7 query mix over the Fig. 10
// popularity curve.
func popularStream(gen *workload.Generator) func() op {
	return func() op { return queryOp(gen.Next()) }
}

// uniformStream is the Fig. 7 query mix over targets drawn uniformly
// from the first n articles.
func uniformStream(gen *workload.Generator, n int, seed int64) func() op {
	rng := rand.New(rand.NewSource(seed))
	return func() op { return queryOp(gen.QueryFor(rng.Intn(n))) }
}

// ingestOps generates the paper-ingest schedule: n ops, every fourth the
// publish of the next not-yet-published article (from index preload on),
// the rest Fig. 7 queries for targets drawn uniformly over the preloaded
// articles.
func ingestOps(gen *workload.Generator, preload, n int, seed int64) []op {
	queries := uniformStream(gen, preload, seed)
	ops := make([]op, n)
	published := preload
	for i := range ops {
		if i%4 == 3 {
			ops[i] = op{publish: true, article: published}
			published++
			continue
		}
		ops[i] = queries()
	}
	return ops
}
