// Package trace is the causal distributed-tracing subsystem: every
// sampled public array operation opens a root span, and the protocol
// layers it flows through — local request queues, the Tx doorbell path,
// the wire (including retransmission stalls), remote runtime service,
// directory fan-outs — emit child spans stamped with virtual-time
// begin/end. The trace context (trace id + parent span id) rides in the
// fabric message header, so a span recorded on node 3 links causally to
// the op that started on node 0.
//
// Where telemetry (PR 1) answers "how often and how slow", trace
// answers "where did the time go": each span carries a Stage, and the
// per-stage duration histograms decompose a slow-path miss into
// queue-wait vs. wire vs. retransmit vs. service vs. fan-out — the
// RDMA-vs-RPC cost accounting of the paper's §2 comparison, measured on
// this implementation.
//
// Cost discipline matches the repository's telemetry rule: a tracer
// that is attached but disabled costs one atomic load per public op and
// nothing on the protocol paths (context values stay zero, and zero
// contexts short-circuit); no tracer attached costs one nil check.
package trace

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"darray/internal/stats"
	"darray/internal/telemetry"
)

// Stage classifies where a span's virtual time was spent. The names are
// the vocabulary of the per-stage latency attribution (and of the
// critical-path blame report), so they are stable strings.
type Stage uint8

const (
	// StageOp is a root span: one public array operation end to end.
	StageOp Stage = iota
	// StageQueue is time spent waiting in line without being serviced:
	// the Tx doorbell queue, a runtime's RPC backlog, a waiter parked on
	// a busy chunk, a lock queue.
	StageQueue
	// StageWire is fault-free time on the wire: bandwidth serialization
	// plus propagation latency.
	StageWire
	// StageRetransmit is the extra delivery delay a lossy wire added:
	// go-back-N resends, stall windows, in-order clamping.
	StageRetransmit
	// StageService is productive work: runtime message handling, chunk
	// copies, grant installs, lock table operations.
	StageService
	// StageFanout is a directory transaction waiting on a multicast:
	// invalidation acks or Operated-collapse flushes from several nodes.
	StageFanout
	// StageShip is function-shipping work: a shipped Operate applied
	// against the authoritative backing at the chunk's home, and the
	// requester-side submission that routed it there.
	StageShip
	// StageCC is time a bulk pipeline spent blocked on its congestion
	// window: the next chunk was ready to issue but the controller's
	// window (PipelineDepth under cc.Fixed) was full. Distinct from
	// StageQueue so the critical-path report separates self-imposed
	// pacing from fabric queueing.
	StageCC

	numStages
)

var stageNames = [numStages]string{"op", "queue", "wire", "retransmit", "service", "fanout", "ship", "cc"}

// String returns the stage's stable name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return fmt.Sprintf("stage-%d", uint8(s))
}

// Stages lists every stage in declaration order (for reports).
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}

// Ctx is the causal context threaded through the protocol: the trace it
// belongs to and the span the next emitted span should name as parent.
// The zero Ctx means "untraced" and makes every emission a no-op, so it
// can be threaded unconditionally.
type Ctx struct {
	Trace uint64
	Span  uint64
}

// Valid reports whether the context belongs to a sampled trace.
func (c Ctx) Valid() bool { return c.Trace != 0 }

// Span is one completed interval of a trace. Begin/End are virtual
// nanoseconds; Node is where the time was spent (for wire and Tx-queue
// spans, the sending node). Parent is 0 only on root spans; for a root
// span ID == Trace.
type Span struct {
	Trace  uint64
	ID     uint64
	Parent uint64
	Node   int32
	Stage  Stage
	Name   string
	Chunk  int64
	Begin  int64
	End    int64
}

// Dur returns the span's duration in virtual nanoseconds.
func (s Span) Dur() int64 { return s.End - s.Begin }

// String renders the span for logs.
func (s Span) String() string {
	return fmt.Sprintf("t%d #%d<-%d n%d %s/%s chunk=%d [%d,%d)",
		s.Trace, s.ID, s.Parent, s.Node, s.Stage, s.Name, s.Chunk, s.Begin, s.End)
}

// DefaultCapacity bounds the span buffer when New is given cap <= 0:
// generous enough for the smoke workloads (a span is ~100 bytes), small
// enough to stay harmless if tracing is left on by accident.
const DefaultCapacity = 1 << 17

// Tracer records spans for one cluster. All methods are safe for
// concurrent use from application threads and runtime goroutines.
type Tracer struct {
	on     atomic.Bool
	sample atomic.Int64 // trace every Nth sampled root (>= 1)
	opSeq  atomic.Uint64
	ids    atomic.Uint64

	// Lock-free per-stage aggregates, collected into telemetry
	// snapshots without taking mu.
	spanCount atomic.Int64
	dropCount atomic.Int64
	stageTel  [numStages]telemetry.Histogram

	mu       sync.Mutex
	spans    []Span
	capacity int
	stageNS  [numStages]stats.Histogram // exact samples for percentile reports
}

// New creates a disabled tracer holding at most capacity spans
// (DefaultCapacity when capacity <= 0). When the buffer fills, further
// spans are counted in Dropped and discarded — never overwritten, so
// the retained prefix keeps its parent links intact.
func New(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	t := &Tracer{capacity: capacity}
	t.sample.Store(1)
	return t
}

// Enable starts sampling: every sampleEvery-th public op (1 = all)
// opens a trace. Safe to call while traffic is running.
func (t *Tracer) Enable(sampleEvery int) {
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t.sample.Store(int64(sampleEvery))
	t.on.Store(true)
}

// Disable stops sampling new roots. In-flight traces stop growing as
// their contexts hit the disabled check.
func (t *Tracer) Disable() { t.on.Store(false) }

// Enabled reports whether the tracer is sampling: one atomic load, the
// only cost tracing adds to an op when off.
func (t *Tracer) Enabled() bool { return t.on.Load() }

// SampleRoot decides whether the next public op is traced. It returns
// a fresh root context (Trace == Span == the new trace id) for sampled
// ops and the zero Ctx otherwise.
func (t *Tracer) SampleRoot() Ctx {
	if !t.on.Load() {
		return Ctx{}
	}
	n := t.opSeq.Add(1)
	if s := t.sample.Load(); s > 1 && n%uint64(s) != 0 {
		return Ctx{}
	}
	id := t.ids.Add(1)
	return Ctx{Trace: id, Span: id}
}

// Child records a completed child span of tc and returns the context
// the next span in the causal chain should use as parent. Zero-length
// intervals are skipped (returning tc unchanged), so stages that did
// not occur — no retransmission, no queueing — leave no span behind.
func (t *Tracer) Child(tc Ctx, node int32, stage Stage, name string, chunk, begin, end int64) Ctx {
	if !tc.Valid() || !t.on.Load() || end <= begin {
		return tc
	}
	id := t.ids.Add(1)
	if !t.record(Span{Trace: tc.Trace, ID: id, Parent: tc.Span, Node: node,
		Stage: stage, Name: name, Chunk: chunk, Begin: begin, End: end}) {
		return tc // dropped: keep chaining from the recorded parent
	}
	return Ctx{Trace: tc.Trace, Span: id}
}

// RecordRoot records the root span of a sampled op, closing the trace
// opened by SampleRoot. Roots are recorded even when zero-length (a
// fully fast-path op under a nil-cost stage still happened).
func (t *Tracer) RecordRoot(tc Ctx, node int32, name string, chunk, begin, end int64) {
	if !tc.Valid() {
		return
	}
	if end < begin {
		end = begin
	}
	t.record(Span{Trace: tc.Trace, ID: tc.Span, Node: node,
		Stage: StageOp, Name: name, Chunk: chunk, Begin: begin, End: end})
}

func (t *Tracer) record(s Span) bool {
	t.stageTel[s.Stage].Observe(s.Dur())
	t.mu.Lock()
	if len(t.spans) >= t.capacity {
		t.mu.Unlock()
		t.dropCount.Add(1)
		return false
	}
	t.spans = append(t.spans, s)
	t.stageNS[s.Stage].Add(s.Dur())
	t.mu.Unlock()
	t.spanCount.Add(1)
	return true
}

// Spans returns a copy of the recorded spans, in recording order.
func (t *Tracer) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of retained spans.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns how many spans were discarded because the buffer was
// full. A nonzero value means parent links of retained spans are still
// intact but traces may be incomplete.
func (t *Tracer) Dropped() int64 { return t.dropCount.Load() }

// Reset discards all recorded spans and stage statistics (the
// telemetry-side aggregates keep accumulating; they are cluster-
// lifetime totals like every other collector).
func (t *Tracer) Reset() {
	t.mu.Lock()
	t.spans = nil
	for i := range t.stageNS {
		t.stageNS[i] = stats.Histogram{}
	}
	t.mu.Unlock()
	t.dropCount.Store(0)
}

// Collector contributes the tracer's aggregates to telemetry snapshots:
// trace/spans, trace/dropped, and one trace/stage/<name> duration
// histogram per stage.
func (t *Tracer) Collector() telemetry.CollectorFunc {
	return func(emit telemetry.Emit) {
		one := func(name string, v int64) {
			if v == 0 {
				return
			}
			emit(telemetry.Metric{Name: name, Kind: telemetry.KindCounter, PerNode: []int64{v}})
		}
		one("trace/spans", t.spanCount.Load())
		one("trace/dropped", t.dropCount.Load())
		for st := Stage(0); st < numStages; st++ {
			h := t.stageTel[st].Data()
			if h.Count == 0 {
				continue
			}
			emit(telemetry.Metric{
				Name:    "trace/stage/" + st.String(),
				Kind:    telemetry.KindHistogram,
				PerNode: []int64{h.Count},
				Hist:    h,
			})
		}
	}
}

// StageReport renders the per-stage latency decomposition of the
// retained spans as an aligned text table with exact p50/p95/p99.
func (t *Tracer) StageReport() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %8s %10s %10s %10s %10s %12s\n",
		"stage", "spans", "p50(ns)", "p95(ns)", "p99(ns)", "max(ns)", "total(ns)")
	for st := Stage(0); st < numStages; st++ {
		h := &t.stageNS[st]
		if h.Count() == 0 {
			continue
		}
		var total float64
		total = h.Mean() * float64(h.Count())
		fmt.Fprintf(&b, "%-12s %8d %10d %10d %10d %10d %12.0f\n",
			st.String(), h.Count(), h.Percentile(50), h.Percentile(95),
			h.Percentile(99), h.Max(), total)
	}
	if d := t.dropCount.Load(); d > 0 {
		fmt.Fprintf(&b, "(%d spans dropped: buffer full)\n", d)
	}
	return b.String()
}
