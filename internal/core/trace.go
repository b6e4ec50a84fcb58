package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"

	"darray/internal/cluster"
	"darray/internal/trace"
)

// The protocol event recorder. A chunk is served by one runtime goroutine
// on each node (paper §4, Fig. 7), so its history already lives on one
// goroutine: each runtime keeps the last traceDepth events it served for
// an array in a ring of values that only it writes — no lock, no atomic,
// no allocation, and always on. Every message handleMsg serves is an
// event, and so are the local ones (evLocalReq, evEvict, evShipReq).
// Readers go through the writer: TraceEvents submits to each runtime, and
// a protocol panic (panicChunk) already runs on the ring's goroutine.

// traceDepth is how many events each runtime keeps per array.
const traceDepth = 256

// TraceEvent is one recorded protocol step on a node.
type TraceEvent struct {
	Seq     uint64 // per (node, runtime), from 1
	Node    int
	Runtime int
	Chunk   int64
	Kind    uint8 // a message kind or local event; String names it
	From    int   // sending node (-1 for local events)
	VT      int64 // virtual time the event arrived at

	// Trace/Span link the event into the causal span tracer's id space
	// when the op that caused it was sampled (zero otherwise), so a flat
	// MergedTrace line can be cross-referenced against a span tree.
	Trace uint64
	Span  uint64
}

// String renders the event for logs.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("#%d n%d/rt%d chunk %d %s from=%d vt=%d", e.Seq, e.Node, e.Runtime, e.Chunk,
		kindName(e.Kind), e.From, e.VT)
	if e.Trace != 0 {
		s += fmt.Sprintf(" trace=%x span=%x", e.Trace, e.Span)
	}
	return s
}

// event is a ring slot: a TraceEvent less what the slot's position and
// the ring's owner say — event seq sits at seq % traceDepth.
type event struct {
	vt, chunk   int64
	trace, span uint64
	from        int32
	kind        uint8
}

// record appends one event to s's ring. Runtime only: it is the one writer.
func (s *rtState) record(kind uint8, ci int64, from int, vt int64, tc trace.Ctx) {
	s.seq++
	s.events[s.seq%traceDepth] = event{vt: vt, chunk: ci, trace: tc.Trace, span: tc.Span,
		from: int32(from), kind: kind}
}

// recent returns the events in s's ring, oldest first. Runtime only.
func (s *rtState) recent() []TraceEvent {
	n := min(s.seq, traceDepth)
	out := make([]TraceEvent, 0, n)
	for q := s.seq - n + 1; q <= s.seq; q++ {
		e := &s.events[q%traceDepth]
		out = append(out, TraceEvent{Seq: q, Node: s.arr.self(), Runtime: s.rt.Index(), Chunk: e.chunk,
			Kind: e.kind, From: int(e.from), VT: e.vt, Trace: e.trace, Span: e.span})
	}
	return out
}

// panicChunk reports a broken protocol invariant on chunk ci with the
// chunk's recent events on this runtime. It runs on the runtime goroutine
// that writes the ring, so the read needs no synchronization.
func (s *rtState) panicChunk(ci int64, what string) {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\nrecent events of chunk %d on node %d runtime %d:", what, ci, s.arr.self(), s.rt.Index())
	for _, e := range s.recent() {
		if e.Chunk == ci {
			b.WriteString("\n  " + e.String())
		}
	}
	panic(b.String())
}

// TraceEvents returns the events this node's runtimes recorded for the
// array — the last traceDepth of each, oldest first per runtime. Each
// ring is read on the runtime goroutine that writes it, so the cluster
// must be running and the caller must not be a runtime goroutine.
func (a *Array) TraceEvents() []TraceEvent {
	parts := make([][]TraceEvent, a.node.Runtimes())
	var wg sync.WaitGroup
	for r := range parts {
		wg.Add(1)
		a.node.Runtime(r).Submit(func(rt *cluster.Runtime) {
			defer wg.Done()
			parts[r] = a.rstate(rt).recent()
		})
	}
	wg.Wait()
	return slices.Concat(parts...)
}

// MergedTrace interleaves the recorded events of several node handles
// into one cluster-wide timeline ordered by virtual time (ties broken by
// node, runtime, then sequence). Because virtual time is the simulated
// causal order, the merged view reads as "what the cluster did", not
// "what each node separately remembers" — the usual first step when
// debugging a cross-node coherence interaction.
func MergedTrace(arrays ...*Array) []TraceEvent {
	var out []TraceEvent
	for _, a := range arrays {
		if a == nil {
			continue
		}
		out = append(out, a.TraceEvents()...)
	}
	sort.SliceStable(out, func(i, j int) bool {
		x, y := out[i], out[j]
		if x.VT != y.VT {
			return x.VT < y.VT
		}
		if x.Node != y.Node {
			return x.Node < y.Node
		}
		if x.Runtime != y.Runtime {
			return x.Runtime < y.Runtime
		}
		return x.Seq < y.Seq
	})
	return out
}
