package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dhtindex/internal/wire"
)

// tracedSide is one of the traced run's two halves.
type tracedSide struct {
	pass, win window
	spans     []span
	pool      wire.PoolStats
	readErr   error
}

// runTraced runs the workload twice on fresh stacks of the same seed,
// untraced and then traced. Each run makes a fixed query pass (whose
// index-level counts must agree between the two) and then measures the
// workload's own load for traceWindow; on paper-sim the fixed pass is
// the §V-E run itself and is the measured load.
func runTraced(o options) (result, report, error) {
	spec, err := specFor(o, traceWindow.Seconds())
	if err != nil {
		return result{}, report{}, err
	}
	run := func(rec *recorder) (tracedSide, error) {
		var side tracedSide
		st, err := spec.build(o, rec)
		if err != nil {
			return side, err
		}
		defer st.close()
		if side.pass, err = spec.fixedPass(o, st); err != nil {
			return side, err
		}
		side.win = side.pass
		if !spec.sim {
			if side.win, err = spec.measure(o, st, traceWindow); err != nil {
				return side, err
			}
		}
		if rec != nil {
			side.spans = rec.snapshot()
		}
		if st.transport != nil {
			side.pool = st.transport.PoolStats()
		}
		side.readErr = st.readBack(spec.articles)
		return side, nil
	}
	plain, err := run(nil)
	if err != nil {
		return result{}, report{}, fmt.Errorf("untraced run: %w", err)
	}
	traced, err := run(newRecorder())
	if err != nil {
		return result{}, report{}, fmt.Errorf("traced run: %w", err)
	}

	var violations []string
	for _, side := range []tracedSide{plain, traced} {
		violations = append(violations, side.pass.violations...)
		violations = append(violations, side.win.violations...)
	}
	if plain.pass.counts != traced.pass.counts {
		violations = append(violations, fmt.Sprintf("traced run took another path: fixed pass untraced %+v, traced %+v",
			plain.pass.counts, traced.pass.counts))
	}
	readErr := plain.readErr
	if readErr == nil {
		readErr = traced.readErr
	}
	reportViolations(violations, readErr, o)

	m, summary := layerMetrics(traced.spans, traced.pool)
	p := traced.pass.counts
	found := float64(p.Found)
	m["index.interactions_per_query"] = ratio(float64(p.Interactions), found)
	m["index.response_bytes_per_query"] = ratio(float64(p.ResponseBytes), found)
	m["index.generalization_share"] = ratio(float64(p.Generalized), found)
	m["cache.hit_ratio"] = ratio(float64(p.CacheHits), found)
	m["cache.first_node_hit_share"] = ratio(float64(p.FirstHits), float64(p.CacheHits))

	w := plain.win
	ops := float64(w.attempted)
	m["proc.cpu_us_per_op"] = ratio(us(w.proc.cpu), ops)
	m["proc.allocs_per_op"] = ratio(float64(w.proc.mallocs), ops)
	m["proc.gc_pause_ms"] = float64(w.proc.gcPause) / float64(time.Millisecond)
	lag, ok := percentile(w.lags.sorted(), 99)
	if !ok {
		return result{}, report{}, fmt.Errorf("loadgen lag: %d samples leave fewer than %d beyond p99", len(w.lags), minBeyond)
	}
	m["loadgen.lag_p99_us"] = us(lag)
	m["loadgen.repeat_share"] = 1 - ratio(float64(w.distinct), float64(w.counts.Queries))
	qps := func(w window) float64 { return float64(len(w.queries)) / w.elapsed.Seconds() }
	m["trace.overhead_ratio"] = ratio(qps(plain.win), qps(traced.win))

	res := result{Correct: len(violations) == 0 && readErr == nil, Metrics: make(map[string]metric)}
	for _, side := range []tracedSide{plain, traced} {
		res.Attempted += side.win.attempted
		res.Failed += side.win.failed
		if !spec.sim {
			res.Attempted += side.pass.attempted
			res.Failed += side.pass.failed
		}
	}
	for _, l := range perLayer {
		v, ok := m[l.name]
		if !ok {
			return result{}, report{}, fmt.Errorf("per-layer metric %s was not computed", l.name)
		}
		res.Metrics[l.name] = metric{v, l.unit}
	}

	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", o.workload, o.seed))
	rep := report{
		Samples: map[string]int{
			"spans":           len(traced.spans),
			"fixed_pass":      p.Queries,
			"untraced_window": len(plain.win.queries),
			"traced_window":   len(traced.win.queries),
			"lag":             len(w.lags),
		},
		Notes: map[string]any{
			"untraced_qps": qps(plain.win),
			"traced_qps":   qps(traced.win),
		},
		Artifacts: map[string]string{"spans": base + "-spans.tsv.gz", "layers": base + "-layers.json"},
	}
	if err := writeSpans(rep.Artifacts["spans"], traced.spans); err != nil {
		return result{}, report{}, fmt.Errorf("write spans: %w", err)
	}
	if err := writeJSON(rep.Artifacts["layers"], summary); err != nil {
		return result{}, report{}, fmt.Errorf("write layer summary: %w", err)
	}
	return res, rep, nil
}

// perLayer lists the traced run's metrics, in BENCHMARK.json's order.
var perLayer = []struct{ name, unit string }{
	{"index.find_self_us", "us"},
	{"index.publish_self_us", "us"},
	{"index.interactions_per_query", "count"},
	{"index.response_bytes_per_query", "B"},
	{"index.generalization_share", "ratio"},
	{"cache.hit_ratio", "ratio"},
	{"cache.first_node_hit_share", "ratio"},
	{"overlay.gets_per_query", "count"},
	{"overlay.get_us", "us"},
	{"overlay.get_self_us", "us"},
	{"overlay.hops_per_get", "count"},
	{"overlay.put_batch_us", "us"},
	{"overlay.put_batch_self_us", "us"},
	{"wire.calls_per_query", "count"},
	{"wire.call_us", "us"},
	{"wire.call_self_us", "us"},
	{"wire.bytes_per_call", "B"},
	{"wire.dials", "count"},
	{"wire.call_errors", "count"},
	{"wire.handle_us.get", "us"},
	{"wire.handle_us.find-successor", "us"},
	{"wire.handle_us.put-batch", "us"},
	{"wire.maintenance_share", "ratio"},
	{"wire.store.view_us", "us"},
	{"wire.store.update_us", "us"},
	{"durable.append_us", "us"},
	{"durable.appends_per_publish", "count"},
	{"proc.cpu_us_per_op", "us"},
	{"proc.allocs_per_op", "count"},
	{"proc.gc_pause_ms", "ms"},
	{"loadgen.lag_p99_us", "us"},
	{"loadgen.repeat_share", "ratio"},
	{"trace.overhead_ratio", "ratio"},
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	Count      int     `json:"count"`
	MeanUs     float64 `json:"mean_us"`
	MeanSelfUs float64 `json:"mean_self_us"`
	TotalSelfS float64 `json:"total_self_s"`
}

// acc accumulates span durations and self times.
type acc struct {
	n          int
	dur, self  int64
	sumN, errs int64
}

func (a *acc) add(s span, self int64) {
	a.n++
	a.dur += s.End - s.Start
	a.self += self
	a.sumN += s.N
	if s.Err {
		a.errs++
	}
}

func (a acc) meanUs() float64     { return ratio(float64(a.dur), float64(a.n)) / 1e3 }
func (a acc) meanSelfUs() float64 { return ratio(float64(a.self), float64(a.n)) / 1e3 }

// layerMetrics derives the span-based per-layer metrics, and a per-name
// self-time summary, from a traced run's spans.
func layerMetrics(spans []span, pool wire.PoolStats) (map[string]float64, map[string]layerStat) {
	self := selfTimes(spans)
	rootOf := make(map[int64]string)
	for _, s := range spans {
		if s.ID == s.Req {
			rootOf[s.ID] = s.Name
		}
	}
	byName := make(map[string]*acc)
	get := func(name string) *acc {
		a := byName[name]
		if a == nil {
			a = &acc{}
			byName[name] = a
		}
		return a
	}
	var (
		queryGets, queryCalls, publishAppends, calls int
		clientCalls, stripes, handlers, maint        acc
	)
	for _, s := range spans {
		st := self[s.ID]
		get(s.Name).add(s, st)
		root := rootOf[s.Req]
		switch {
		case s.Name == "overlay.get" && root == "index.find":
			queryGets++
		case s.Name == "wire.call":
			calls++
			if root == "index.find" {
				queryCalls++
			}
			if s.Req != 0 {
				clientCalls.add(s, st)
			}
		case strings.HasPrefix(s.Name, "stripe."):
			stripes.add(s, st)
			if root == "index.publish" {
				publishAppends++
			}
		case strings.HasPrefix(s.Name, "wire.handle."):
			handlers.add(s, st)
			if s.Req == 0 {
				maint.add(s, st)
			}
		}
	}
	finds := float64(get("index.find").n)
	publishes := float64(get("index.publish").n)
	og := get("overlay.get")
	pb := get("overlay.put_batch")
	m := map[string]float64{
		"index.find_self_us":            get("index.find").meanSelfUs(),
		"index.publish_self_us":         get("index.publish").meanSelfUs(),
		"overlay.gets_per_query":        ratio(float64(queryGets), finds),
		"overlay.get_us":                og.meanUs(),
		"overlay.get_self_us":           og.meanSelfUs(),
		"overlay.hops_per_get":          ratio(float64(og.sumN), float64(og.n)),
		"overlay.put_batch_us":          pb.meanUs(),
		"overlay.put_batch_self_us":     pb.meanSelfUs(),
		"wire.calls_per_query":          ratio(float64(queryCalls), finds),
		"wire.call_us":                  clientCalls.meanUs(),
		"wire.call_self_us":             clientCalls.meanSelfUs(),
		"wire.bytes_per_call":           ratio(float64(pool.BytesSent), float64(calls)),
		"wire.dials":                    float64(pool.Dials),
		"wire.call_errors":              float64(get("wire.call").errs),
		"wire.handle_us.get":            get("wire.handle.get").meanUs(),
		"wire.handle_us.find-successor": get("wire.handle.find-successor").meanUs(),
		"wire.handle_us.put-batch":      get("wire.handle.put-batch").meanUs(),
		"wire.maintenance_share":        ratio(float64(maint.dur), float64(handlers.dur)),
		"wire.store.view_us":            get("store.view").meanUs(),
		"wire.store.update_us":          get("store.update").meanUs(),
		"durable.append_us":             stripes.meanUs(),
		"durable.appends_per_publish":   ratio(float64(publishAppends), publishes),
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	summary := make(map[string]layerStat, len(names))
	for _, n := range names {
		a := byName[n]
		summary[n] = layerStat{Count: a.n, MeanUs: a.meanUs(), MeanSelfUs: a.meanSelfUs(), TotalSelfS: float64(a.self) / 1e9}
	}
	return m, summary
}
