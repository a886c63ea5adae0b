package main

// Tracing decorators for the traced run. Each wraps one layer's public
// interface and records a span around every call into it. A decorator
// must expose exactly the optional interfaces its inner value has, since
// the program type-asserts them to pick its code path (batched publish,
// deadline-aware reads, the node's store seam); the assertions below and
// TestDecoratorsKeepOptionalInterfaces hold them to that.

import (
	"context"
	"fmt"
	"io"
	"sync/atomic"

	"dhtindex/internal/keyspace"
	"dhtindex/internal/overlay"
	"dhtindex/internal/telemetry"
	"dhtindex/internal/wire"
	"dhtindex/internal/wire/durable"
)

// ctxCaller is the deadline-aware call the wire cluster type-asserts on
// its transport.
type ctxCaller interface {
	CallCtx(ctx context.Context, addr string, req wire.Message) (wire.Message, error)
}

// ctxTransport is a transport with the deadline-aware call, as the TCP
// transport is.
type ctxTransport interface {
	wire.Transport
	ctxCaller
}

var (
	_ overlay.BatchNetwork   = (*wire.Cluster)(nil)
	_ overlay.ContextNetwork = (*wire.Cluster)(nil)
	_ ctxTransport           = (*wire.TCPTransport)(nil)
	_ wire.RecoverableStore  = (*wire.ShardedStore)(nil)
	_ wire.InstrumentedStore = (*wire.ShardedStore)(nil)

	_ overlay.Network        = (*tracedNet)(nil)
	_ overlay.ContextNetwork = (*tracedCtxNet)(nil)
	_ overlay.ContextNetwork = (*tracedBatchNet)(nil)
	_ overlay.BatchNetwork   = (*tracedBatchNet)(nil)
	_ ctxTransport           = (*tracedTransport)(nil)
	_ wire.ConcurrentStore   = (*tracedStore)(nil)
	_ wire.RecoverableStore  = (*tracedStore)(nil)
	_ wire.InstrumentedStore = (*tracedStore)(nil)
	_ wire.Store             = (*tracedStripe)(nil)
	_ wire.RecoverableStore  = (*tracedDurableStripe)(nil)
	_ wire.InstrumentedStore = (*tracedDurableStripe)(nil)
)

// traceNetwork wraps an overlay in the decorator that matches its
// optional interfaces.
// The returned *tracedNet is the decorator's core, through which the
// caller sets the current request.
func traceNetwork(inner overlay.Network, rec *recorder) (overlay.Network, *tracedNet, error) {
	_, isBatch := inner.(overlay.BatchNetwork)
	cn, isCtx := inner.(overlay.ContextNetwork)
	switch {
	case isBatch && isCtx:
		d := &tracedBatchNet{tracedCtxNet{tracedNet{inner: inner, rec: rec}, cn}, inner.(overlay.BatchNetwork)}
		return d, &d.tracedNet, nil
	case isCtx:
		d := &tracedCtxNet{tracedNet{inner: inner, rec: rec}, cn}
		return d, &d.tracedNet, nil
	case isBatch:
		return nil, nil, fmt.Errorf("perfbench: no decorator for a batch overlay without GetCtx (%T)", inner)
	default:
		d := &tracedNet{inner: inner, rec: rec}
		return d, d, nil
	}
}

// tracedNet records overlay.get / overlay.put / overlay.remove spans.
// An overlay.get span carries the route's hop count in N. Each client
// has its own tracedNet; cur is the client's current query or publish,
// the parent of calls that arrive without a context.
type tracedNet struct {
	inner overlay.Network
	rec   *recorder
	cur   atomic.Pointer[span]
}

// begin opens a span under the caller's span and returns a context
// carrying it into the inner overlay.
func (t *tracedNet) begin(ctx context.Context, name string) (*span, context.Context) {
	parent := spanOf(ctx)
	if parent == nil {
		parent = t.cur.Load()
	}
	s := t.rec.start(name, parent)
	return s, withSpan(ctx, s)
}

func (t *tracedNet) Put(key keyspace.Key, e overlay.Entry) (overlay.Route, error) {
	s, _ := t.begin(nil, "overlay.put")
	r, err := t.inner.Put(key, e)
	t.rec.finish(s, err)
	return r, err
}

func (t *tracedNet) Get(key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	s, _ := t.begin(nil, "overlay.get")
	es, r, err := t.inner.Get(key)
	s.N = int64(r.Hops)
	t.rec.finish(s, err)
	return es, r, err
}

func (t *tracedNet) Remove(key keyspace.Key, e overlay.Entry) (bool, error) {
	s, _ := t.begin(nil, "overlay.remove")
	ok, err := t.inner.Remove(key, e)
	t.rec.finish(s, err)
	return ok, err
}

func (t *tracedNet) Addrs() []string { return t.inner.Addrs() }

func (t *tracedNet) StatsOf(addr string) (overlay.NodeStats, error) { return t.inner.StatsOf(addr) }

func (t *tracedNet) Size() int { return t.inner.Size() }

// tracedCtxNet adds the deadline-aware read.
type tracedCtxNet struct {
	tracedNet
	cn overlay.ContextNetwork
}

func (t *tracedCtxNet) GetCtx(ctx context.Context, key keyspace.Key) ([]overlay.Entry, overlay.Route, error) {
	s, ctx := t.begin(ctx, "overlay.get")
	es, r, err := t.cn.GetCtx(ctx, key)
	s.N = int64(r.Hops)
	t.rec.finish(s, err)
	return es, r, err
}

// tracedBatchNet adds batched mutations.
type tracedBatchNet struct {
	tracedCtxNet
	bn overlay.BatchNetwork
}

func (t *tracedBatchNet) PutBatch(ctx context.Context, items []overlay.KeyEntry) error {
	s, ctx := t.begin(ctx, "overlay.put_batch")
	err := t.bn.PutBatch(ctx, items)
	t.rec.finish(s, err)
	return err
}

func (t *tracedBatchNet) RemoveBatch(ctx context.Context, items []overlay.KeyEntry) (int, error) {
	s, ctx := t.begin(ctx, "overlay.remove_batch")
	n, err := t.bn.RemoveBatch(ctx, items)
	t.rec.finish(s, err)
	return n, err
}

// tracedTransport records a wire.call span per outgoing call and wraps
// every handler it is given in Listen, so each served request gets a
// wire.handle.<op> span linked to the call that sent it. The clients'
// cluster has one with a nil scope: its calls find their parent in the
// context. Each node has its own, with the node's scope, through which
// the calls a handler forwards find the handler.
type tracedTransport struct {
	inner ctxTransport
	rec   *recorder
	scope *nodeScope
}

func (t *tracedTransport) Listen(addr string, handler wire.Handler) (string, io.Closer, error) {
	var self atomic.Pointer[string]
	actual, closer, err := t.inner.Listen(addr, t.handler(&self, handler))
	if err == nil {
		self.Store(&actual)
	}
	return actual, closer, err
}

func (t *tracedTransport) Call(addr string, req wire.Message) (wire.Message, error) {
	return t.call(nil, addr, req)
}

func (t *tracedTransport) CallCtx(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	return t.call(ctx, addr, req)
}

func (t *tracedTransport) call(ctx context.Context, addr string, req wire.Message) (wire.Message, error) {
	parent := spanOf(ctx)
	if parent == nil && t.scope != nil {
		if keys := msgKeys(req); len(keys) > 0 {
			parent = t.scope.top(keys[0])
		}
	}
	s := t.rec.start("wire.call", parent)
	k := flightKey{addr: addr, op: req.Op, key: req.Key}
	if parent != nil {
		t.rec.depart(k, s)
	}
	var resp wire.Message
	var err error
	if ctx == nil {
		resp, err = t.inner.Call(addr, req)
	} else {
		resp, err = t.inner.CallCtx(ctx, addr, req)
	}
	if parent != nil {
		t.rec.land(k, s)
	}
	spanErr := err
	if err == nil && resp.Err != "" {
		spanErr = fmt.Errorf("remote: %s", resp.Err)
	}
	t.rec.finish(s, spanErr)
	return resp, err
}

// handlerNames caches the span name of each operation.
var handlerNames = func() map[wire.Op]string {
	m := make(map[wire.Op]string)
	for op := wire.OpPing; op <= wire.OpCodecSwitch; op++ {
		m[op] = "wire.handle." + op.String()
	}
	return m
}()

func (t *tracedTransport) handler(self *atomic.Pointer[string], h wire.Handler) wire.Handler {
	return func(req wire.Message) wire.Message {
		var parent *span
		if addr := self.Load(); addr != nil {
			parent = t.rec.arrive(flightKey{addr: *addr, op: req.Op, key: req.Key})
		}
		name, ok := handlerNames[req.Op]
		if !ok {
			name = "wire.handle.unknown"
		}
		s := t.rec.start(name, parent)
		keys := msgKeys(req)
		if t.scope != nil {
			t.scope.push(keys, s)
		}
		resp := h(req)
		if t.scope != nil {
			t.scope.pop(keys, s)
		}
		var err error
		if resp.Err != "" {
			err = fmt.Errorf("%s", resp.Err)
		}
		t.rec.finish(s, err)
		return resp
	}
}

// tracedStore records store.view spans for keyed reads (View, Get) and
// store.update spans for keyed writes (Update and the direct mutators)
// on a node's synchronized store. Both include the wait for the key's
// stripe lock.
type tracedStore struct {
	inner *wire.ShardedStore
	rec   *recorder
	scope *nodeScope
}

func (t *tracedStore) section(name string, key keyspace.Key, fn func() error) error {
	s := t.rec.start(name, t.scope.top(key))
	keys := []keyspace.Key{key}
	t.scope.push(keys, s)
	err := fn()
	t.scope.pop(keys, s)
	t.rec.finish(s, err)
	return err
}

func (t *tracedStore) Get(key keyspace.Key) (out []overlay.Entry) {
	_ = t.section("store.view", key, func() error { out = t.inner.Get(key); return nil })
	return out
}

func (t *tracedStore) View(key keyspace.Key, fn func(s wire.Store) error) error {
	return t.section("store.view", key, func() error { return t.inner.View(key, fn) })
}

func (t *tracedStore) Update(key keyspace.Key, fn func(s wire.Store) error) error {
	return t.section("store.update", key, func() error { return t.inner.Update(key, fn) })
}

func (t *tracedStore) Put(key keyspace.Key, e overlay.Entry) (added bool, err error) {
	err = t.section("store.update", key, func() error { added, err = t.inner.Put(key, e); return err })
	return added, err
}

func (t *tracedStore) Remove(key keyspace.Key, e overlay.Entry) (removed bool, err error) {
	err = t.section("store.update", key, func() error { removed, err = t.inner.Remove(key, e); return err })
	return removed, err
}

func (t *tracedStore) Replace(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) error {
	return t.section("store.update", key, func() error { return t.inner.Replace(key, entries, tombs) })
}

func (t *tracedStore) Entomb(key keyspace.Key, tombs []wire.Tombstone) (n int, err error) {
	err = t.section("store.update", key, func() error { n, err = t.inner.Entomb(key, tombs); return err })
	return n, err
}

func (t *tracedStore) Tombstoned(key keyspace.Key, e overlay.Entry) bool {
	return t.inner.Tombstoned(key, e)
}

func (t *tracedStore) Tombstones(key keyspace.Key) []wire.Tombstone { return t.inner.Tombstones(key) }

func (t *tracedStore) ForEachTombstone(fn func(key keyspace.Key, tombs []wire.Tombstone) bool) {
	t.inner.ForEachTombstone(fn)
}

func (t *tracedStore) GCTombstones(before int64) (int, error) { return t.inner.GCTombstones(before) }

func (t *tracedStore) ForEach(fn func(key keyspace.Key, entries []overlay.Entry) bool) {
	t.inner.ForEach(fn)
}

func (t *tracedStore) Len() int { return t.inner.Len() }

func (t *tracedStore) Sync() error { return t.inner.Sync() }

func (t *tracedStore) Close() error { return t.inner.Close() }

func (t *tracedStore) RecoveryStats() wire.RecoveryStats { return t.inner.RecoveryStats() }

func (t *tracedStore) Instrument(reg *telemetry.Registry) { t.inner.Instrument(reg) }

// tracedStripe records a stripe.<op> span for each mutation of one
// stripe's backing store: a WAL append on a durable stripe, a map write
// on an in-memory one.
type tracedStripe struct {
	inner wire.Store
	rec   *recorder
	scope *nodeScope
}

func (t *tracedStripe) mutate(name string, key keyspace.Key, fn func() error) error {
	s := t.rec.start(name, t.scope.top(key))
	err := fn()
	t.rec.finish(s, err)
	return err
}

func (t *tracedStripe) Get(key keyspace.Key) []overlay.Entry { return t.inner.Get(key) }

func (t *tracedStripe) Put(key keyspace.Key, e overlay.Entry) (added bool, err error) {
	err = t.mutate("stripe.put", key, func() error { added, err = t.inner.Put(key, e); return err })
	return added, err
}

func (t *tracedStripe) Remove(key keyspace.Key, e overlay.Entry) (removed bool, err error) {
	err = t.mutate("stripe.remove", key, func() error { removed, err = t.inner.Remove(key, e); return err })
	return removed, err
}

func (t *tracedStripe) Replace(key keyspace.Key, entries []overlay.Entry, tombs []wire.Tombstone) error {
	return t.mutate("stripe.replace", key, func() error { return t.inner.Replace(key, entries, tombs) })
}

func (t *tracedStripe) Entomb(key keyspace.Key, tombs []wire.Tombstone) (n int, err error) {
	err = t.mutate("stripe.entomb", key, func() error { n, err = t.inner.Entomb(key, tombs); return err })
	return n, err
}

func (t *tracedStripe) Tombstoned(key keyspace.Key, e overlay.Entry) bool {
	return t.inner.Tombstoned(key, e)
}

func (t *tracedStripe) Tombstones(key keyspace.Key) []wire.Tombstone { return t.inner.Tombstones(key) }

func (t *tracedStripe) ForEachTombstone(fn func(key keyspace.Key, tombs []wire.Tombstone) bool) {
	t.inner.ForEachTombstone(fn)
}

func (t *tracedStripe) GCTombstones(before int64) (int, error) { return t.inner.GCTombstones(before) }

func (t *tracedStripe) ForEach(fn func(key keyspace.Key, entries []overlay.Entry) bool) {
	t.inner.ForEach(fn)
}

func (t *tracedStripe) Len() int { return t.inner.Len() }

func (t *tracedStripe) Sync() error { return t.inner.Sync() }

func (t *tracedStripe) Close() error { return t.inner.Close() }

// tracedDurableStripe is tracedStripe over a durable store, keeping the
// recovery and telemetry extensions the sharded store type-asserts.
type tracedDurableStripe struct {
	tracedStripe
	d *durable.Store
}

func (t *tracedDurableStripe) RecoveryStats() wire.RecoveryStats { return t.d.RecoveryStats() }

func (t *tracedDurableStripe) Instrument(reg *telemetry.Registry) { t.d.Instrument(reg) }
