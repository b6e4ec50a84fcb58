package main

import (
	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/kvs"
	"darray/internal/stats"
)

// Benchmark-side spans: recorded from the benchmark's own files around
// the calls into each layer (driver -> kvs, kvs -> core through the
// WordStore decorator, driver -> core, driver -> engine). Spans inside
// the program are the program tracer's business (Config.Tracer).
//
// A span records its name, parent, op id and begin/end on both clocks;
// a layer's self time is its span minus its children. Spans stay in
// memory and are written when the run ends.

type spanName uint8

const (
	spKvsGet spanName = iota
	spKvsPut
	spCoreGet
	spCoreSet
	spCoreRLock
	spCoreWLock
	spCoreUnlock
	spCoreGetRange
	spCoreSetRange
	spCoreApply
	spCorePin
	spEnginePageRank
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"kvs.get", "kvs.put",
	"core.get", "core.set", "core.rlock", "core.wlock", "core.unlock",
	"core.getrange", "core.setrange", "core.apply", "core.pin",
	"engine.pagerank",
}

func (n spanName) isLock() bool { return n == spCoreRLock || n == spCoreWLock || n == spCoreUnlock }

type span struct {
	name   spanName
	parent int32 // index into the same buffer, -1 for a root
	op     int64
	hb, he int64 // host ns
	vb, ve int64 // virtual ns
}

// spanCap bounds one client's buffer; further spans are counted and
// dropped, never overwritten, so retained parent links stay intact.
const spanCap = 1 << 17

// spanBuf is one client's span buffer. It is owned by that client's
// goroutine: no synchronisation.
type spanBuf struct {
	spans   []span
	open    int32 // innermost open span, -1 when none
	dropped int64
}

func newSpanBuf() *spanBuf { return &spanBuf{spans: make([]span, 0, spanCap), open: -1} }

// begin opens a span under the innermost open one and returns its
// index, or -1 when the buffer is full. Safe on a nil buffer.
func (b *spanBuf) begin(name spanName, op int64, ctx *cluster.Ctx) int32 {
	if b == nil {
		return -1
	}
	if len(b.spans) == spanCap {
		b.dropped++
		return -1
	}
	i := int32(len(b.spans))
	b.spans = append(b.spans, span{name: name, parent: b.open, op: op, hb: now(), vb: ctx.Clock.Now()})
	b.open = i
	return i
}

// end closes span i (a no-op for -1).
func (b *spanBuf) end(i int32, ctx *cluster.Ctx) {
	if i < 0 {
		return
	}
	s := &b.spans[i]
	s.he, s.ve = now(), ctx.Clock.Now()
	b.open = s.parent
}

// reset discards everything recorded so far (the warm-up's spans).
func (b *spanBuf) reset() {
	if b != nil {
		b.spans, b.open, b.dropped = b.spans[:0], -1, 0
	}
}

// timedStore decorates the core array under a KVS so that every
// WordStore call made inside a sampled KVS op becomes a child span of
// that op. Outside a sampled op it costs one comparison per call.
type timedStore struct {
	*core.Array
	sp [nodes]*spanBuf // by the calling client's node
}

var _ kvs.WordStore = timedStore{}

func (s timedStore) buf(ctx *cluster.Ctx) *spanBuf {
	if b := s.sp[ctx.Node.ID()]; b.open >= 0 {
		return b
	}
	return nil
}

func (s timedStore) Get(ctx *cluster.Ctx, i int64) uint64 {
	b := s.buf(ctx)
	id := b.begin(spCoreGet, i, ctx)
	v := s.Array.Get(ctx, i)
	b.end(id, ctx)
	return v
}

func (s timedStore) Set(ctx *cluster.Ctx, i int64, v uint64) {
	b := s.buf(ctx)
	id := b.begin(spCoreSet, i, ctx)
	s.Array.Set(ctx, i, v)
	b.end(id, ctx)
}

func (s timedStore) RLock(ctx *cluster.Ctx, i int64) {
	b := s.buf(ctx)
	id := b.begin(spCoreRLock, i, ctx)
	s.Array.RLock(ctx, i)
	b.end(id, ctx)
}

func (s timedStore) WLock(ctx *cluster.Ctx, i int64) {
	b := s.buf(ctx)
	id := b.begin(spCoreWLock, i, ctx)
	s.Array.WLock(ctx, i)
	b.end(id, ctx)
}

func (s timedStore) Unlock(ctx *cluster.Ctx, i int64) {
	b := s.buf(ctx)
	id := b.begin(spCoreUnlock, i, ctx)
	s.Array.Unlock(ctx, i)
	b.end(id, ctx)
}

// spanStats holds one span name's durations on both clocks.
type spanStats struct {
	host, vt stats.Histogram
}

// spanSummary aggregates both clients' spans.
type spanSummary struct {
	by [numSpanNames]spanStats

	// Over KVS root spans and their direct children.
	kvOps, kvCalls       int64
	kvHost, kvVt         int64 // total KVS span time
	kvChildHost          int64 // time inside core child spans
	kvLockHost, kvLockVt int64 // time inside lock child spans
	dropped              int64
	unclosed             int64 // spans whose end was never recorded (a degraded run)
}

func summarize(bufs []*spanBuf) *spanSummary {
	s := &spanSummary{}
	for _, b := range bufs {
		if b == nil {
			continue
		}
		s.dropped += b.dropped
		for _, sp := range b.spans {
			if sp.he == 0 {
				s.unclosed++
				continue
			}
			h, v := sp.he-sp.hb, sp.ve-sp.vb
			st := &s.by[sp.name]
			st.host.Add(h)
			st.vt.Add(v)
			switch {
			case sp.name == spKvsGet || sp.name == spKvsPut:
				s.kvOps++
				s.kvHost += h
				s.kvVt += v
			case sp.parent >= 0 && b.spans[sp.parent].name <= spKvsPut:
				s.kvCalls++
				s.kvChildHost += h
				if sp.name.isLock() {
					s.kvLockHost += h
					s.kvLockVt += v
				}
			}
		}
	}
	return s
}

// p50us is the median duration of a span name in microseconds, or
// missing when the workload recorded none.
func (s *spanSummary) p50us(n spanName, virtual bool) float64 {
	d := &s.by[n].host
	if virtual {
		d = &s.by[n].vt
	}
	if d.Count() == 0 {
		return missing
	}
	return usOf(d.Percentile(50))
}
