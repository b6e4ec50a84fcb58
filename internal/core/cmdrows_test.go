package core

import (
	"slices"
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

// cmdCounts are the counters a coherence command, or the voluntary
// writeback or op-flush an eviction sends instead, can move.
type cmdCounts struct {
	invals, writeBacks, copies, opFlushes, recalls, downgrades, evictions int64
}

func countsOf(arrays ...*Array) cmdCounts {
	var s cmdCounts
	for _, a := range arrays {
		m := &a.Metrics
		s.invals += m.Invals.Load()
		s.writeBacks += m.WriteBacks.Load()
		s.copies += m.PayloadCopies.Load()
		s.opFlushes += m.OpFlushes.Load()
		s.recalls += m.Recalls.Load()
		s.downgrades += m.Downgrades.Load()
		s.evictions += m.Evictions.Load()
	}
	return s
}

func (s cmdCounts) minus(o cmdCounts) cmdCounts {
	return cmdCounts{s.invals - o.invals, s.writeBacks - o.writeBacks, s.copies - o.copies,
		s.opFlushes - o.opFlushes, s.recalls - o.recalls, s.downgrades - o.downgrades,
		s.evictions - o.evictions}
}

// homeEvents returns the events node 0 (the home of chunk 0) recorded
// for chunk 0, oldest first.
func homeEvents(home *Array) []TraceEvent {
	var out []TraceEvent
	for _, e := range home.TraceEvents() {
		if e.Chunk == 0 {
			out = append(out, e)
		}
	}
	return out
}

// TestCoherenceCommandRows drives every coherence command against a copy
// of chunk 0 (homed on node 0) that node 1 holds, and the voluntary
// writeback and op-flush an eviction sends in place of a recall and an
// op-recall, one step at a time in one causal chain. For each it pins
// the home's events on the chunk and the virtual time the reply arrived
// at, the counters that move, the permission node 1 is left with and the
// acting thread's virtual clock.
// The literals are the protocol's observable behaviour, so a rewrite of
// how a node obeys a command, or of how the home awaits the reply, must
// leave every one of them as it is.
func TestCoherenceCommandRows(t *testing.T) {
	type row struct {
		name    string
		setup   func(a *Array, ctx *cluster.Ctx, add OpID) // on node 1
		actor   int
		trigger func(a *Array, ctx *cluster.Ctx, add OpID)
		events  []string // home events on chunk 0 the trigger causes
		replyVT int64    // the virtual time the last of them arrived at
		delta   cmdCounts
		perm    uint32 // node 1's permission on chunk 0 afterwards
		clock   int64  // the actor's virtual clock after the trigger
	}
	get := func(i int64) func(*Array, *cluster.Ctx, OpID) {
		return func(a *Array, ctx *cluster.Ctx, _ OpID) { a.Get(ctx, i) }
	}
	set := func(v uint64) func(*Array, *cluster.Ctx, OpID) {
		return func(a *Array, ctx *cluster.Ctx, _ OpID) { a.Set(ctx, 0, v) }
	}
	apply := func(a *Array, ctx *cluster.Ctx, add OpID) { a.Apply(ctx, add, 0, 1) }
	rows := []row{
		{"invalidate", get(0), 0, set(1),
			[]string{"local-req", "inv-ack"}, 11032, cmdCounts{invals: 1}, permInvalid, 11282},
		// The home's own read of a Dirty chunk recalls it: a third node
		// reads to have the owner downgraded.
		{"downgrade", set(2), 2, get(0),
			[]string{"read-req", "writeback"}, 25457, cmdCounts{writeBacks: 1, copies: 1, downgrades: 1}, permRead, 27178},
		{"recall", set(3), 0, set(4),
			[]string{"local-req", "writeback"}, 42592, cmdCounts{writeBacks: 1, recalls: 1}, permInvalid, 42906},
		{"op-recall", apply, 0, get(0),
			[]string{"local-req", "op-flush"}, 55682, cmdCounts{opFlushes: 1}, permInvalid, 55996},
		// One cache line per runtime: node 1's read of chunk 1 evicts
		// chunk 0.
		{"evict-writeback", set(5), 1, get(64),
			[]string{"writeback"}, 63739, cmdCounts{writeBacks: 1, evictions: 1}, permInvalid, 69247},
		{"evict-op-flush", apply, 1, get(64),
			[]string{"op-flush"}, 76829, cmdCounts{opFlushes: 1, evictions: 1}, permInvalid, 82337},
	}
	c := tc(t, 3, func(cfg *cluster.Config) {
		cfg.Model, cfg.RuntimeThreads, cfg.CacheChunks, cfg.PrefetchAhead = vtime.Default(), 1, 1, -1
	})
	var arrays [3]*Array
	var clock int64
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 3*4*64) // chunks 0-3 homed on node 0
		arrays[n.ID()] = a
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		for _, r := range rows {
			c.Barrier(ctx)
			if n.ID() == 1 {
				r.setup(a, ctx, add)
			}
			c.Barrier(ctx)
			var before cmdCounts
			var seen int
			if n.ID() == 0 {
				before, seen = countsOf(arrays[:]...), len(homeEvents(a))
			}
			c.Barrier(ctx)
			if n.ID() == r.actor {
				r.trigger(a, ctx, add)
				clock = ctx.Clock.Now()
			}
			if n.ID() == 0 {
				// An eviction's answer reaches the home after the trigger
				// returns on node 1.
				await(func() bool { return len(homeEvents(a)) >= seen+len(r.events) })
			}
			c.Barrier(ctx)
			if n.ID() != 0 {
				continue
			}
			evs := homeEvents(a)[seen:]
			var got []string
			for _, e := range evs {
				got = append(got, kindName(e.Kind))
			}
			if !slices.Equal(got, r.events) {
				t.Errorf("%s: home events on chunk 0 %v, want %v", r.name, got, r.events)
			} else if vt := evs[len(evs)-1].VT; vt != r.replyVT {
				t.Errorf("%s: reply arrived at vt %d, want %d", r.name, vt, r.replyVT)
			}
			if got := countsOf(arrays[:]...).minus(before); got != r.delta {
				t.Errorf("%s: counter deltas %+v, want %+v", r.name, got, r.delta)
			}
			if got := statePerm(arrays[1].dents[0].state.Load()); got != r.perm {
				t.Errorf("%s: node 1 left with perm %d, want %d", r.name, got, r.perm)
			}
			if clock != r.clock {
				t.Errorf("%s: actor's clock %d, want %d", r.name, clock, r.clock)
			}
		}
		c.Barrier(ctx)
	})
}
