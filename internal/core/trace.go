package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"darray/internal/trace"
)

// TraceEvent is one recorded protocol step on a node.
type TraceEvent struct {
	Seq   uint64
	Node  int
	Chunk int64
	Kind  string // message kind or local event name
	From  int    // requesting/sending node (-1 for local events)
	VT    int64  // virtual time the event was serviced at

	// Trace/Span link the event into the causal span tracer's id space
	// when the op that caused it was sampled (zero otherwise), so a flat
	// MergedTrace line can be cross-referenced against a span tree.
	Trace uint64
	Span  uint64
}

// String renders the event for logs.
func (e TraceEvent) String() string {
	s := fmt.Sprintf("#%d n%d chunk %d %s from=%d vt=%d", e.Seq, e.Node, e.Chunk, e.Kind, e.From, e.VT)
	if e.Trace != 0 {
		s += fmt.Sprintf(" trace=%x span=%x", e.Trace, e.Span)
	}
	return s
}

// tracer is a bounded ring of protocol events, disabled by default. It
// exists for debugging coherence issues: enable it on the handles you
// suspect, reproduce, then dump.
type tracer struct {
	on   atomic.Bool
	mu   sync.Mutex
	seq  uint64
	ring []TraceEvent
	pos  int
	full bool
}

// EnableTrace starts recording up to depth protocol events on this
// node's handle (older events are overwritten).
func (a *Array) EnableTrace(depth int) {
	if depth <= 0 {
		depth = 1024
	}
	a.tr.mu.Lock()
	a.tr.ring = make([]TraceEvent, depth)
	a.tr.pos, a.tr.full = 0, false
	a.tr.seq = 0 // fresh recording: sequence numbers restart at 1
	a.tr.mu.Unlock()
	a.tr.on.Store(true)
}

// DisableTrace stops recording.
func (a *Array) DisableTrace() { a.tr.on.Store(false) }

// TraceEvents returns the recorded events, oldest first.
func (a *Array) TraceEvents() []TraceEvent {
	a.tr.mu.Lock()
	defer a.tr.mu.Unlock()
	if !a.tr.full {
		out := make([]TraceEvent, a.tr.pos)
		copy(out, a.tr.ring[:a.tr.pos])
		return out
	}
	out := make([]TraceEvent, len(a.tr.ring))
	n := copy(out, a.tr.ring[a.tr.pos:])
	copy(out[n:], a.tr.ring[:a.tr.pos])
	return out
}

// trace records one event when tracing is on (a single atomic load when
// off, so the protocol handlers can call it unconditionally).
func (a *Array) trace(kind string, ci int64, from int, vt int64, tc trace.Ctx) {
	if !a.tr.on.Load() {
		return
	}
	a.tr.mu.Lock()
	a.tr.seq++
	ev := TraceEvent{Seq: a.tr.seq, Node: a.node.ID(), Chunk: ci, Kind: kind, From: from, VT: vt,
		Trace: tc.Trace, Span: tc.Span}
	if len(a.tr.ring) == 0 {
		a.tr.mu.Unlock()
		return
	}
	a.tr.ring[a.tr.pos] = ev
	a.tr.pos++
	if a.tr.pos == len(a.tr.ring) {
		a.tr.pos = 0
		a.tr.full = true
	}
	a.tr.mu.Unlock()
}

// MergedTrace interleaves the recorded events of several node handles
// into one cluster-wide timeline ordered by virtual time (ties broken by
// node, then per-node sequence). Because virtual time is the simulated
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
		if out[i].VT != out[j].VT {
			return out[i].VT < out[j].VT
		}
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
