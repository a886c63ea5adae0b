// Command perfbench is the repository's benchmark. It builds the paper's
// stack from the program's public constructors, drives one workload
// against it for a fixed time, checks every answer, and prints its
// metrics as one JSON line, after a line recording the host and the
// sample counts. Run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload paper-read --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - paper-read: the Fig. 7 query mix over the Fig. 10 popularity curve,
//     closed loop with 2 clients, on an 8-node loopback-TCP ring holding
//     2,000 Simple-scheme articles in the default in-memory stores.
//   - paper-ingest: the same ring on striped durable stores, open loop at
//     ingestRate ops/s; one op in four publishes a new article, the rest
//     query targets drawn uniformly over the preloaded articles.
//   - paper-sim: the §V-E simulation, 500 simulated Chord nodes, 10,000
//     articles, one client with an LRU-30 single cache.
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, and reports the per-layer
// metrics of the traced run (see layers.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"dhtindex/internal/dataset"
	"dhtindex/internal/descriptor"
	"dhtindex/internal/workload"
)

const (
	// livePreload is the article count published during a live set-up.
	livePreload = 2000
	// simArticles and simQueries are the §V-E run's sizes.
	simArticles = 10000
	simQueries  = 50000
	// ingestRate is paper-ingest's arrival rate in ops/s, about half of
	// paper-read's capacity on a 2-core host. It also gives each slice
	// of the window over a thousand publishes, enough for a p99.
	ingestRate = 1200
	// traceWindow is how long the traced run measures the workload's
	// load: long enough for every layer's means, short enough that the
	// spans fit in a few tens of MB.
	traceWindow = 5 * time.Second
	// liveSetupReps and simSetupReps are how many timed builds a run
	// makes after one untimed warm-up build, which pays the process's
	// one-time costs (first touch of heap memory, code page-in); setup_s
	// and the set-up publish latencies come from the timed builds, and
	// the last build is measured.
	liveSetupReps = 4
	simSetupReps  = 5
	// livePassQueries is the per-client length of the fixed query pass
	// the traced and untraced runs of a live workload must agree on.
	livePassQueries = 300
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report is the run's record beside its metrics: the host, the sample
// behind each percentile, and where the artifacts went.
type report struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Seconds   int               `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      host              `json:"host"`
	Samples   map[string]int    `json:"samples"`
	Notes     map[string]any    `json:"notes,omitempty"`
	Artifacts map[string]string `json:"artifacts,omitempty"`
}

type host struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "paper-read, paper-ingest or paper-sim")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	flag.StringVar(&o.out, "out", "perfbench-out", "directory for artifacts and durable node data")
	flag.Parse()
	o.trace = *traceFlag == 1
	if o.seconds < 1 {
		fatalf("--seconds must be at least 1")
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fatalf("%v", err)
	}
	var (
		res result
		rep report
		err error
	)
	switch o.workload {
	case "paper-read", "paper-ingest", "paper-sim":
		if o.trace {
			res, rep, err = runTraced(o)
		} else {
			res, rep, err = runPlain(o)
		}
	default:
		fatalf("unknown --workload %q (want paper-read, paper-ingest or paper-sim)", o.workload)
	}
	if err != nil {
		fatalf("%s seed %d: %v", o.workload, o.seed, err)
	}
	rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Host = o.workload, o.seed, o.seconds, o.trace, hostInfo()
	if err := writeJSON(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-trace%v-report.json", o.workload, o.seed, o.trace)), rep); err != nil {
		fatalf("write report: %v", err)
	}
	printJSON(rep)
	printJSON(res)
	if !res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %s produced wrong output; reproduce with --workload %s --seed %d --seconds %d --trace %d\n",
			o.workload, o.workload, o.seed, o.seconds, *traceFlag)
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("encode: %v", err)
	}
	fmt.Println(string(b))
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func hostInfo() host {
	h := host{NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: "unknown", Go: runtime.Version(), Commit: "unknown"}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				h.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			h.Commit = rev
			if modified == "true" {
				h.Commit += "+dirty"
			}
		}
	}
	return h
}

// workloadSpec is what differs between the workloads.
type workloadSpec struct {
	articles []descriptor.Article
	preload  int
	durable  bool
	sim      bool
	// passQueries is the per-client length of the fixed query pass.
	passQueries int
	// opsPer is the paper-ingest schedule length for a window of d.
	opsPer func(d time.Duration) int
}

func specFor(o options, ingestSeconds float64) (workloadSpec, error) {
	s := workloadSpec{passQueries: livePassQueries}
	n := livePreload
	switch o.workload {
	case "paper-sim":
		n, s.sim, s.passQueries = simArticles, true, simQueries
	case "paper-ingest":
		s.durable = true
		s.opsPer = func(d time.Duration) int { return int(ingestRate * d.Seconds()) }
		n += s.opsPer(time.Duration(ingestSeconds*float64(time.Second)))/4 + 1
	}
	corpus, err := dataset.Generate(dataset.Config{Articles: n, Seed: o.seed})
	if err != nil {
		return s, err
	}
	s.articles = corpus.Articles
	s.preload = livePreload
	if s.sim {
		s.preload = n
	}
	return s, nil
}

// build builds one stack for the workload; rec is nil untraced.
func (s workloadSpec) build(o options, rec *recorder) (*stack, error) {
	if s.sim {
		return buildSim(s.articles, o.seed, simNodes, rec)
	}
	dir := ""
	if s.durable {
		var err error
		if dir, err = os.MkdirTemp(o.out, "data-"); err != nil {
			return nil, err
		}
	}
	st, err := buildLive(s.articles, s.preload, o.seed, dir, rec)
	if dir != "" {
		cleanup := func() { _ = os.RemoveAll(dir) }
		if err != nil {
			cleanup()
		} else {
			stop := st.stop
			st.stop = func() { stop(); cleanup() }
		}
	}
	return st, err
}

// streams returns each client's query stream; the fixed pass and the
// simulator replay the same seeds.
func (s workloadSpec) streams(o options, st *stack) ([]func() op, error) {
	out := make([]func() op, len(st.clients))
	for c := range out {
		gen, err := workload.NewGenerator(s.articles[:s.preload], workload.PaperStructureModel(), o.seed+1+int64(c))
		if err != nil {
			return nil, err
		}
		if s.durable {
			out[c] = uniformStream(gen, s.preload, o.seed+100+int64(c))
		} else {
			out[c] = popularStream(gen)
		}
	}
	return out, nil
}

// measure runs the workload's load on st for d.
func (s workloadSpec) measure(o options, st *stack, d time.Duration) (window, error) {
	if s.durable {
		gen, err := workload.NewGenerator(s.articles[:s.preload], workload.PaperStructureModel(), o.seed+1)
		if err != nil {
			return window{}, err
		}
		return openLoop(st, ingestOps(gen, s.preload, s.opsPer(d), o.seed+100), ingestRate, s.articles), nil
	}
	streams, err := s.streams(o, st)
	if err != nil {
		return window{}, err
	}
	return closedLoop(st, streams, s.articles, d, 0), nil
}

// fixedPass runs a fixed number of queries per client from fresh
// streams: the part of a run whose index-level counts repeat exactly.
func (s workloadSpec) fixedPass(o options, st *stack) (window, error) {
	streams, err := s.streams(o, st)
	if err != nil {
		return window{}, err
	}
	return closedLoop(st, streams, s.articles, 0, s.passQueries), nil
}

// runPlain is the untraced run: build the stack once to warm up and then
// liveSetupReps or simSetupReps more times, measure the last stack for
// the run's seconds, read every acked publish back.
func runPlain(o options) (result, report, error) {
	spec, err := specFor(o, float64(o.seconds))
	if err != nil {
		return result{}, report{}, err
	}
	var (
		st     *stack
		setups []time.Duration
		pubs   []latencies
	)
	reps := liveSetupReps
	if spec.sim {
		reps = simSetupReps
	}
	for r := 0; r <= reps; r++ {
		if st != nil {
			st.close()
		}
		if st, err = spec.build(o, nil); err != nil {
			return result{}, report{}, fmt.Errorf("set-up %d: %w", r, err)
		}
		if r > 0 {
			setups = append(setups, st.setup)
			pubs = append(pubs, st.publishLat)
		}
	}
	defer st.close()
	heap := liveHeap()
	d := time.Duration(o.seconds) * time.Second
	w, err := spec.measure(o, st, d)
	if err != nil {
		return result{}, report{}, err
	}
	rbErr := st.readBack(spec.articles)
	reportViolations(w.violations, rbErr, o)

	qps, qp50, qp99, err := w.queries.sliceMedians(slices(d), d, "query latency")
	if err != nil {
		return result{}, report{}, err
	}
	if spec.durable {
		// The open loop issues queries at a fixed rate, so its throughput
		// is what completed by the time the schedule drained.
		qps = float64(len(w.queries)) / w.elapsed.Seconds()
	}
	// Publish latency: over the measured window's slices on
	// paper-ingest, over each set-up's corpus publish elsewhere.
	var pp50, pp99 float64
	pubSource, pubN := "publishes in the measured window, timed from their due time", len(w.publishes)
	if spec.durable {
		_, pp50, pp99, err = w.publishes.sliceMedians(slices(d), d, "publish latency")
	} else {
		pubSource = "corpus publishes of every timed set-up, median over set-ups"
		pubN = 0
		p50s := make([]float64, len(pubs))
		p99s := make([]float64, len(pubs))
		for i, l := range pubs {
			pubN += len(l)
			if p50s[i], p99s[i], err = l.quantilesUs(fmt.Sprintf("set-up %d publish latency", i+1)); err != nil {
				break
			}
		}
		pp50, pp99 = median(p50s), median(p99s)
	}
	if err != nil {
		return result{}, report{}, err
	}
	setupS := make([]float64, len(setups))
	for i, s := range setups {
		setupS[i] = s.Seconds()
	}
	res := result{
		Correct:   len(w.violations) == 0 && rbErr == nil,
		Attempted: w.attempted,
		Failed:    w.failed,
		Metrics: map[string]metric{
			"query_qps":      {qps, "1/s"},
			"query_p50_us":   {qp50, "us"},
			"query_p99_us":   {qp99, "us"},
			"publish_p50_us": {pp50, "us"},
			"publish_p99_us": {pp99, "us"},
			"setup_s":        {median(setupS), "s"},
			"heap_mb":        {heap, "MB"},
		},
	}
	rep := report{
		Samples: map[string]int{"query": len(w.queries), "publish": pubN, "slices": slices(d), "setup": len(setups)},
		Notes: map[string]any{
			"fail_ratio":      ratio(float64(w.failed), float64(w.attempted)),
			"setup_s_each":    setupS,
			"publish_samples": pubSource,
			"window_s":        w.elapsed.Seconds(),
		},
	}
	return res, rep, nil
}

// liveHeap forces a GC and returns the live heap in MB.
func liveHeap() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// reportViolations prints what went wrong, with the seed that
// reproduces it.
func reportViolations(vs []string, rbErr error, o options) {
	if rbErr != nil {
		vs = append(vs, rbErr.Error())
	}
	sort.Strings(vs)
	for i, v := range vs {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more\n", len(vs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %s\n", o.workload, o.seed, v)
	}
}
