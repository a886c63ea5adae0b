package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/wire"
)

// span is one timed call across a layer boundary. Times are nanoseconds
// since the recorder started. Req is the ID of the root span (a query or
// a publish) that caused the call; 0 marks work no client issued, such
// as ring maintenance.
type span struct {
	ID, Parent, Req int64
	Name            string
	Start, End      int64
	// N is a count the span reports: routing hops for overlay.get.
	N   int64
	Err bool
}

// recorder keeps every span of a traced run in memory.
type recorder struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span

	// inflight links a client-side wire call to the server handler it
	// reaches: both run in this process, but the request crosses TCP, so
	// the handler matches on (address, op, key) instead of a context.
	flMu     sync.Mutex
	inflight map[flightKey][]*span
}

type flightKey struct {
	addr string
	op   wire.Op
	key  keyspace.Key
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16), inflight: make(map[flightKey][]*span)}
}

type spanKey struct{}

// withSpan returns ctx carrying s as the parent of the calls made under
// it.
func withSpan(ctx context.Context, s *span) context.Context {
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanKey{}, s)
}

// spanOf returns the span ctx carries, or nil.
func spanOf(ctx context.Context) *span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(spanKey{}).(*span)
	return s
}

// start opens a span under parent (nil for a root). A root span is its
// own request.
func (r *recorder) start(name string, parent *span) *span {
	s := &span{ID: r.nextID.Add(1), Name: name, Start: int64(time.Since(r.t0))}
	if parent != nil {
		s.Parent, s.Req = parent.ID, parent.Req
	}
	return s
}

// root opens a request span: a query or a publish.
func (r *recorder) root(name string) *span {
	s := r.start(name, nil)
	s.Req = s.ID
	return s
}

// finish closes s and stores it.
func (r *recorder) finish(s *span, err error) {
	s.End = int64(time.Since(r.t0))
	s.Err = err != nil
	r.mu.Lock()
	r.spans = append(r.spans, *s)
	r.mu.Unlock()
}

// depart registers a wire call about to leave for k; arrive pops it on
// the server side. Calls with no client cause are not registered, so
// their handlers count as maintenance.
func (r *recorder) depart(k flightKey, s *span) {
	r.flMu.Lock()
	r.inflight[k] = append(r.inflight[k], s)
	r.flMu.Unlock()
}

func (r *recorder) arrive(k flightKey) *span {
	r.flMu.Lock()
	defer r.flMu.Unlock()
	q := r.inflight[k]
	if len(q) == 0 {
		return nil
	}
	s := q[0]
	if len(q) == 1 {
		delete(r.inflight, k)
	} else {
		r.inflight[k] = q[1:]
	}
	return s
}

// land removes a call that returned without being popped (the request
// never reached a handler, e.g. a dial error).
func (r *recorder) land(k flightKey, s *span) {
	r.flMu.Lock()
	defer r.flMu.Unlock()
	q := r.inflight[k]
	for i, c := range q {
		if c == s {
			q = append(q[:i:i], q[i+1:]...)
			break
		}
	}
	if len(q) == 0 {
		delete(r.inflight, k)
	} else {
		r.inflight[k] = q
	}
}

// snapshot returns a copy of every finished span.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// nodeScope tracks the spans open on one node by the keys they work on.
// Go gives a handler no context to carry its span into the store calls
// and forwarded calls it makes, so those find their parent here: the
// latest open span on the same node touching the same key. Two requests
// for one key overlapping on one node may swap parents; their spans are
// of the same kind, so per-layer sums are unaffected.
type nodeScope struct {
	mu   sync.Mutex
	open map[keyspace.Key][]*span
}

func newNodeScope() *nodeScope { return &nodeScope{open: make(map[keyspace.Key][]*span)} }

func (n *nodeScope) push(keys []keyspace.Key, s *span) {
	n.mu.Lock()
	for _, k := range keys {
		n.open[k] = append(n.open[k], s)
	}
	n.mu.Unlock()
}

func (n *nodeScope) pop(keys []keyspace.Key, s *span) {
	n.mu.Lock()
	for _, k := range keys {
		q := n.open[k]
		for i := len(q) - 1; i >= 0; i-- {
			if q[i] == s {
				q = append(q[:i:i], q[i+1:]...)
				break
			}
		}
		if len(q) == 0 {
			delete(n.open, k)
		} else {
			n.open[k] = q
		}
	}
	n.mu.Unlock()
}

// top returns the latest open span on key, or nil.
func (n *nodeScope) top(key keyspace.Key) *span {
	n.mu.Lock()
	defer n.mu.Unlock()
	q := n.open[key]
	if len(q) == 0 {
		return nil
	}
	return q[len(q)-1]
}

// msgKeys lists the keys a message works on: its key and the keys of
// its key-entry groups.
func msgKeys(m wire.Message) []keyspace.Key {
	keys := make([]keyspace.Key, 0, 1+len(m.KV))
	if m.Key != (keyspace.Key{}) {
		keys = append(keys, m.Key)
	}
	for _, kv := range m.KV {
		keys = append(keys, kv.Key)
	}
	return keys
}

// selfTimes returns, for each span ID, the span's duration minus the
// part of its interval covered by its children. Children of one parent
// may overlap (a batch fans out to several owners at once), so the
// covered part is the length of the union of the children's intervals,
// clipped to the parent's.
func selfTimes(spans []span) map[int64]int64 {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		self[s.ID] = (s.End - s.Start) - covered(s.Start, s.End, children[s.ID])
	}
	return self
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	curLo, curHi := int64(0), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// writeSpans writes one span per line as tab-separated
// id, parent, req, name, start_ns, end_ns, err, gzip-compressed.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "id\tparent\treq\tname\tstart_ns\tend_ns\terr")
	for _, s := range spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\t%t\n", s.ID, s.Parent, s.Req, s.Name, s.Start, s.End, s.Err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
