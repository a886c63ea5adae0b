package main

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"

	"dhtindex/internal/cache"
	"dhtindex/internal/dataset"
	"dhtindex/internal/dht"
	"dhtindex/internal/index"
	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/sim"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
	"dhtindex/internal/workload"
)

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	samples := func(n int) []time.Duration {
		s := make([]time.Duration, n)
		for i := range s {
			s[i] = time.Duration(i+1) * time.Millisecond
		}
		return s
	}
	cases := []struct {
		n    int
		p    float64
		want time.Duration
		ok   bool
	}{
		{1000, 99, 990 * time.Millisecond, true}, // 10 samples beyond rank 990
		{999, 99, 0, false},                      // rank 990 leaves 9 beyond
		{1010, 99, 1000 * time.Millisecond, true},
		{20, 50, 10 * time.Millisecond, true},
		{19, 50, 0, false},
		{0, 50, 0, false},
	}
	for _, c := range cases {
		got, ok := percentile(samples(c.n), c.p)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(%d samples, p%v) = %v, %v; want %v, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	if _, _, err := latencies(samples(999)).quantilesUs("query"); err == nil {
		t.Error("quantilesUs reported a p99 with 9 samples beyond it")
	}
}

func TestSelfTimesOnHandBuiltTree(t *testing.T) {
	// root [0,100] has children a [10,40] and b [30,60], which overlap,
	// and c [90,120], which outlives it; a has child d [15,20].
	spans := []span{
		{ID: 1, Req: 1, Name: "index.find", Start: 0, End: 100},
		{ID: 2, Parent: 1, Req: 1, Name: "overlay.get", Start: 10, End: 40},
		{ID: 3, Parent: 1, Req: 1, Name: "overlay.get", Start: 30, End: 60},
		{ID: 4, Parent: 1, Req: 1, Name: "overlay.get", Start: 90, End: 120},
		{ID: 5, Parent: 2, Req: 1, Name: "wire.call", Start: 15, End: 20},
	}
	want := map[int64]int64{1: 100 - 50 - 10, 2: 30 - 5, 3: 30, 4: 30, 5: 5}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// optional lists the optional interfaces the program type-asserts that
// v implements.
func optional(v any) []string {
	var out []string
	for name, ok := range map[string]bool{
		"overlay.BatchNetwork":   is[overlay.BatchNetwork](v),
		"overlay.ContextNetwork": is[overlay.ContextNetwork](v),
		"ctxCaller":              is[ctxCaller](v),
		"wire.ConcurrentStore":   is[wire.ConcurrentStore](v),
		"wire.RecoverableStore":  is[wire.RecoverableStore](v),
		"wire.InstrumentedStore": is[wire.InstrumentedStore](v),
	} {
		if ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

func is[T any](v any) bool { _, ok := v.(T); return ok }

// plainNet is an overlay with none of the optional interfaces.
type plainNet struct{ overlay.Network }

func TestDecoratorsKeepOptionalInterfaces(t *testing.T) {
	rec := newRecorder()
	scope := newNodeScope()
	d, err := durable.Open(t.TempDir(), durable.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	cluster := wire.NewCluster(wire.NewTCPTransport(), 1, 0)
	simNet := dht.AsOverlay(dht.NewNetwork(1), 1)
	wrapNet := func(n overlay.Network) any {
		out, _, err := traceNetwork(n, rec)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	sharded := wire.NewShardedMemStore(0)
	pairs := []struct {
		name         string
		inner, outer any
	}{
		{"cluster overlay", cluster, wrapNet(cluster)},
		{"simulated overlay", simNet, wrapNet(simNet)},
		{"plain overlay", plainNet{}, wrapNet(plainNet{})},
		{"transport", wire.NewTCPTransport(), &tracedTransport{inner: wire.NewTCPTransport(), rec: rec}},
		{"node store", sharded, &tracedStore{inner: sharded, rec: rec, scope: scope}},
		{"memory stripe", wire.NewMemStore(), &tracedStripe{inner: wire.NewMemStore(), rec: rec, scope: scope}},
		{"durable stripe", d, &tracedDurableStripe{tracedStripe{inner: d, rec: rec, scope: scope}, d}},
	}
	for _, p := range pairs {
		if in, out := optional(p.inner), optional(p.outer); !reflect.DeepEqual(in, out) {
			t.Errorf("%s: inner implements %v, decorator %v", p.name, in, out)
		}
	}
}

// TestSimOracle checks that the benchmark's paper-sim stack, built from
// public constructors, reproduces sim.Run's indexing metrics for the
// same seed, traced and untraced.
func TestSimOracle(t *testing.T) {
	const (
		nodes    = 60
		articles = 600
		queries  = 3000
	)
	for _, seed := range []int64{1, 7} {
		want, err := sim.Run(sim.Options{Nodes: nodes, Articles: articles, Queries: queries,
			Scheme: index.Simple, Policy: cache.LRU, LRUCapacity: simLRU, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		corpus, err := dataset.Generate(dataset.Config{Articles: articles, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var passes []passCounts
		for _, rec := range []*recorder{nil, newRecorder()} {
			st, err := buildSim(corpus.Articles, seed, nodes, rec)
			if err != nil {
				t.Fatal(err)
			}
			gen, err := workload.NewGenerator(corpus.Articles, workload.PaperStructureModel(), seed+1)
			if err != nil {
				t.Fatal(err)
			}
			w := closedLoop(st, []func() op{popularStream(gen)}, corpus.Articles, 0, queries)
			p := w.counts
			found := float64(p.Found)
			if got := float64(p.Interactions) / found; math.Abs(got-want.InteractionsPerQuery) > 1e-9 {
				t.Errorf("seed %d: interactions/query %v, sim.Run %v", seed, got, want.InteractionsPerQuery)
			}
			if got := float64(p.CacheHits) / found; math.Abs(got-want.HitRatio) > 1e-9 {
				t.Errorf("seed %d: hit ratio %v, sim.Run %v", seed, got, want.HitRatio)
			}
			if got := float64(p.FirstHits) / float64(p.CacheHits); math.Abs(got-want.FirstNodeHitShare) > 1e-9 {
				t.Errorf("seed %d: first-node hit share %v, sim.Run %v", seed, got, want.FirstNodeHitShare)
			}
			if got := p.Queries - p.Found; got != want.Failures {
				t.Errorf("seed %d: %d failures, sim.Run %d", seed, got, want.Failures)
			}
			if err := st.readBack(corpus.Articles); err != nil {
				t.Error(err)
			}
			passes = append(passes, p)
		}
		if passes[0] != passes[1] {
			t.Errorf("seed %d: traced pass %+v differs from untraced %+v", seed, passes[1], passes[0])
		}
	}
}

// TestTracedLiveRunTakesSamePath runs a small durable live ring untraced
// and traced and checks the fixed pass gives identical index-level
// counts, every query finds its file, and the spans link up: every
// query's wire calls reach a handler that reads the store.
func TestTracedLiveRunTakesSamePath(t *testing.T) {
	if testing.Short() {
		t.Skip("boots two TCP rings")
	}
	const seed, preload = 3, 200
	corpus, err := dataset.Generate(dataset.Config{Articles: preload, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	spec := workloadSpec{articles: corpus.Articles, preload: preload, durable: true, passQueries: 40}
	o := options{seed: seed, out: t.TempDir()}
	var passes []passCounts
	var spans []span
	for _, rec := range []*recorder{nil, newRecorder()} {
		st, err := spec.build(o, rec)
		if err != nil {
			t.Fatal(err)
		}
		w, err := spec.fixedPass(o, st)
		if err == nil && len(w.violations) > 0 {
			t.Errorf("violations: %v", w.violations)
		}
		if err == nil {
			err = st.readBack(corpus.Articles)
		}
		st.close()
		if err != nil {
			t.Fatal(err)
		}
		passes = append(passes, w.counts)
		if rec != nil {
			spans = rec.snapshot()
		}
	}
	if passes[0] != passes[1] {
		t.Errorf("traced pass %+v differs from untraced %+v", passes[1], passes[0])
	}
	m, _ := layerMetrics(spans, wire.PoolStats{})
	for _, name := range []string{"overlay.gets_per_query", "wire.calls_per_query", "wire.handle_us.get",
		"wire.store.view_us", "overlay.put_batch_us", "durable.appends_per_publish"} {
		if m[name] <= 0 {
			t.Errorf("%s = %v, want > 0", name, m[name])
		}
	}
	byID := make(map[int64]span, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	linked := 0
	for _, s := range spans {
		if s.Name == "wire.handle.get" && s.Req != 0 {
			if p, ok := byID[s.Parent]; !ok || p.Name != "wire.call" {
				t.Fatalf("client get handler %+v has parent %+v", s, p)
			}
			linked++
		}
	}
	if linked == 0 {
		t.Error("no get handler was linked to the query that caused it")
	}
}

func TestNodeScopeFindsLatestOpenSpan(t *testing.T) {
	n := newNodeScope()
	k1, k2 := keyspace.NewKey("a"), keyspace.NewKey("b")
	h := &span{ID: 1}
	sec := &span{ID: 2}
	n.push([]keyspace.Key{k1, k2}, h)
	n.push([]keyspace.Key{k1}, sec)
	if n.top(k1) != sec || n.top(k2) != h {
		t.Fatal("top does not return the latest open span per key")
	}
	n.pop([]keyspace.Key{k1}, sec)
	if n.top(k1) != h {
		t.Fatal("pop did not restore the enclosing span")
	}
	n.pop([]keyspace.Key{k1, k2}, h)
	if n.top(k1) != nil || n.top(k2) != nil || len(n.open) != 0 {
		t.Fatal("scope not empty after every span closed")
	}
}
