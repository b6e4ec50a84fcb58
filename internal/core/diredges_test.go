package core

import (
	"cmp"
	"slices"
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

// homeEvent is one event the home recorded on chunk 0: its kind's name and
// the virtual time it arrived at.
type homeEvent struct {
	kind string
	vt   int64
}

// transCounts are the directory's Transition counters, one per edge.
type transCounts [NumTransitions]int64

func transitionsOf(a *Array) transCounts {
	var t transCounts
	for i := range t {
		t[i] = a.Metrics.Transitions[i].Load()
	}
	return t
}

// dirOf reads chunk 0's directory state and its ship estimator's event
// count on the runtime goroutine that owns them.
func dirOf(a *Array) (dstate uint8, shipEvents int32) {
	done := make(chan struct{})
	a.rtOf(0).Submit(func(*cluster.Runtime) {
		defer close(done)
		d := &a.dents[0]
		dstate, shipEvents = d.dstate, d.obs.ship.events
	})
	<-done
	return dstate, shipEvents
}

// TestDirectoryEdges drives every edge of chunk 0's home directory (node
// 0 is its home; nodes 1 and 2 cache it), one step at a time in one
// causal chain: the eleven counted Transition edges, the requests the
// home serves in place, local requests that fold the chunk back first,
// and a shipped op into each directory state. For each step it pins the
// transitions counted, the coherence counters that move, the home's
// events on the chunk with their virtual times, every node's permission,
// the directory state, the ship estimator's events and the actor's
// clock. It runs once with Ship "auto" (the shipping nodes set their
// hint) and once with "on"; only the estimator differs, since "on" keeps
// none. The literals are the protocol's observable behaviour, so a
// rewrite of how the home steps through its directory must leave every
// one of them as it is.
func TestDirectoryEdges(t *testing.T) {
	const (
		uS = 1 << TransUnsharedToShared
		uD = 1 << TransUnsharedToDirty
		uO = 1 << TransUnsharedToOperated
		sU = 1 << TransSharedToUnshared
		sD = 1 << TransSharedToDirty
		sO = 1 << TransSharedToOperated
		sA = 1 << TransSharedAddSharer
		dS = 1 << TransDirtyToShared
		dU = 1 << TransDirtyToUnshared
		oU = 1 << TransOperatedToUnshared
		oA = 1 << TransOperatedAddNode
	)
	type ops struct{ add, min OpID }
	type row struct {
		name   string
		actor  int
		do     func(a *Array, ctx *cluster.Ctx, o ops)
		edges  int // the Transition edges counted, one bit each, each once
		delta  cmdCounts
		events []homeEvent // sorted by (vt, kind)
		perms  [3]uint32   // every node's permission on chunk 0 afterwards
		dstate uint8
		ship   int32 // ship estimator events under "auto"
		clock  int64
	}
	get := func(a *Array, ctx *cluster.Ctx, _ ops) { a.Get(ctx, 0) }
	set := func(a *Array, ctx *cluster.Ctx, _ ops) { a.Set(ctx, 0, 9) }
	apply := func(a *Array, ctx *cluster.Ctx, o ops) { a.Apply(ctx, o.add, 0, 1) }
	operate := func(min bool) func(*Array, *cluster.Ctx, ops) {
		return func(a *Array, ctx *cluster.Ctx, o ops) {
			op := o.add
			if min {
				op = o.min
			}
			p := a.PinOperate(ctx, 0, op)
			p.Apply(ctx, 0, 7)
			p.Unpin(ctx)
		}
	}
	// ship sends an add to the home: "on" ships every remote Apply the node
	// has no permission for, "auto" once the node holds the home's hint.
	ship := func(a *Array, ctx *cluster.Ctx, o ops) {
		a.dents[0].ship.Store(true)
		a.Apply(ctx, o.add, 0, 1)
	}
	ev := func(kv ...any) []homeEvent {
		var out []homeEvent
		for i := 0; i < len(kv); i += 2 {
			out = append(out, homeEvent{kv[i].(string), int64(kv[i+1].(int))})
		}
		return out
	}
	const (
		I = permInvalid
		R = permRead
		W = permRW
		O = permOperated
	)
	rows := []row{
		{"U→S remote read", 1, get, uS, cmdCounts{}, ev("read-req", 4968), [3]uint32{R, R, I}, dirShared, 0, 6625},
		{"S+sharer remote read", 2, get, sA, cmdCounts{}, ev("read-req", 13393), [3]uint32{R, R, R}, dirShared, 0, 15050},
		{"S local write reclaims", 0, set, sU, cmdCounts{invals: 2}, ev("local-req", 20581, "inv-ack", 23057, "inv-ack", 23140), [3]uint32{W, I, I}, dirUnshared, 0, 23557},
		{"U ship applies in place", 2, ship, 0, cmdCounts{}, ev("ship-op", 30334), [3]uint32{W, I, I}, dirUnshared, 1, 31823},
		{"U→D remote write", 1, set, uD, cmdCounts{}, ev("write-req", 38592), [3]uint32{I, W, I}, dirDirty, 0, 40249},
		{"D→S remote read downgrades", 2, get, dS, cmdCounts{writeBacks: 1, copies: 1, downgrades: 1}, ev("read-req", 47017, "writeback", 49598), [3]uint32{R, R, R}, dirShared, 0, 51319},
		{"S→D remote write invalidates", 1, set, sD, cmdCounts{invals: 1}, ev("write-req", 58088, "inv-ack", 60564), [3]uint32{I, W, I}, dirDirty, 0, 62221},
		{"D remote write recalls", 2, set, uD | dU, cmdCounts{writeBacks: 1, recalls: 1}, ev("write-req", 68990, "writeback", 71571), [3]uint32{I, I, W}, dirDirty, 0, 73292},
		{"D ship recalls", 1, ship, dU, cmdCounts{writeBacks: 1, recalls: 1}, ev("ship-op", 80069, "writeback", 82650), [3]uint32{W, I, I}, dirUnshared, 1, 84203},
		{"U→O remote operate", 1, operate(false), uO, cmdCounts{}, ev("operate-req", 90945), [3]uint32{O, O, I}, dirOperated, 1, 92446},
		{"O ship of its operator applies in place", 2, ship, 0, cmdCounts{}, ev("ship-op", 99223), [3]uint32{O, O, I}, dirOperated, 1, 100712},
		{"O+node remote operate", 2, operate(false), oA, cmdCounts{}, ev("operate-req", 107454), [3]uint32{O, O, O}, dirOperated, 1, 108955},
		{"O local read collapses", 0, get, oU, cmdCounts{opFlushes: 2}, ev("local-req", 114485, "op-flush", 117066, "op-flush", 117149), [3]uint32{W, I, I}, dirUnshared, 0, 117630},
		{"U→S remote read again", 1, get, uS, cmdCounts{}, ev("read-req", 124398), [3]uint32{R, R, I}, dirShared, 0, 126055},
		{"S→O remote operate invalidates", 2, operate(false), sO, cmdCounts{invals: 1}, ev("operate-req", 132797, "inv-ack", 135273), [3]uint32{O, I, O}, dirOperated, 1, 136774},
		{"O remote read collapses", 1, get, uS | oU, cmdCounts{opFlushes: 1}, ev("read-req", 143542, "op-flush", 146123), [3]uint32{R, R, I}, dirShared, 0, 147844},
		{"S ship invalidates the shipper too", 1, ship, sU, cmdCounts{invals: 1}, ev("ship-op", 154621, "inv-ack", 157097), [3]uint32{W, I, I}, dirUnshared, 1, 158586},
		{"U→O under another operator", 1, operate(true), uO, cmdCounts{}, ev("operate-req", 165328), [3]uint32{O, O, I}, dirOperated, 1, 166829},
		// A shipped op is noted to the estimator once, though it waits for
		// the collapse it causes.
		{"O ship of another operator collapses", 2, ship, oU, cmdCounts{opFlushes: 1}, ev("ship-op", 173606, "op-flush", 176187), [3]uint32{W, I, I}, dirUnshared, 1, 177740},
		{"U→O under add", 2, operate(false), uO, cmdCounts{}, ev("operate-req", 184482), [3]uint32{O, I, O}, dirOperated, 1, 185983},
		{"O remote write collapses", 1, set, uD | oU, cmdCounts{opFlushes: 1}, ev("write-req", 192752, "op-flush", 195333), [3]uint32{I, W, I}, dirDirty, 0, 197054},
		{"D remote operate recalls", 2, operate(false), uO | dU, cmdCounts{writeBacks: 1, recalls: 1}, ev("operate-req", 203796, "writeback", 206377), [3]uint32{O, I, O}, dirOperated, 1, 207942},
		{"O remote operate of another operator collapses", 1, operate(true), uO | oU, cmdCounts{opFlushes: 1}, ev("operate-req", 214684, "op-flush", 217265), [3]uint32{O, O, I}, dirOperated, 1, 218830},
		{"O local apply of another operator collapses", 0, apply, oU, cmdCounts{opFlushes: 1}, ev("local-req", 224369, "op-flush", 226950), [3]uint32{W, I, I}, dirUnshared, 0, 227264},
		{"U→S before a local apply", 2, get, uS, cmdCounts{}, ev("read-req", 234032), [3]uint32{R, I, R}, dirShared, 0, 235689},
		{"S local apply reclaims", 0, apply, sU, cmdCounts{invals: 1}, ev("local-req", 241228, "inv-ack", 243704), [3]uint32{W, I, I}, dirUnshared, 0, 243954},
		{"U→S before a lone upgrade", 1, get, uS, cmdCounts{}, ev("read-req", 250722), [3]uint32{R, R, I}, dirShared, 0, 252379},
		{"S→D remote write, no other sharer", 1, set, sD, cmdCounts{}, ev("write-req", 259148), [3]uint32{I, W, I}, dirDirty, 0, 260805},
		{"D local write recalls", 0, set, dU, cmdCounts{writeBacks: 1, recalls: 1}, ev("local-req", 266336, "writeback", 268917), [3]uint32{W, I, I}, dirUnshared, 0, 269231},
		{"U local read hits", 0, get, 0, cmdCounts{}, ev(), [3]uint32{W, I, I}, dirUnshared, 0, 274657},
	}
	for _, mode := range []string{"auto", "on"} {
		t.Run(mode, func(t *testing.T) {
			// One doorbell per message: the second command of a fan-out
			// otherwise rides the first one's doorbell or rings its own as the
			// host schedules the Tx thread, and its reply's virtual time
			// moves with that.
			c := tc(t, 3, func(cfg *cluster.Config) {
				cfg.Model, cfg.RuntimeThreads, cfg.PrefetchAhead, cfg.TxBurst, cfg.Ship = vtime.Default(), 1, -1, 1, mode
			})
			var arrays [3]*Array
			var clock int64
			runBounded(t, c, func(n *cluster.Node) {
				a := New(n, 3*4*64) // chunks 0-3 homed on node 0
				arrays[n.ID()] = a
				o := ops{a.RegisterOp(OpAddU64), a.RegisterOp(OpMinU64)}
				ctx := n.NewCtx(0)
				for _, r := range rows {
					c.Barrier(ctx)
					var before cmdCounts
					var trans transCounts
					var seq uint64
					var ship int32
					if n.ID() == 0 {
						before, trans = countsOf(arrays[:]...), transitionsOf(a)
						for _, e := range homeEvents(a) {
							seq = e.Seq
						}
						_, ship = dirOf(a)
					}
					c.Barrier(ctx)
					if n.ID() == r.actor {
						r.do(a, ctx, o)
						clock = ctx.Clock.Now()
					}
					c.Barrier(ctx)
					if n.ID() != 0 {
						continue
					}
					after := transitionsOf(a)
					edges := 0
					for i := range after {
						switch d := after[i] - trans[i]; d {
						case 0:
						case 1:
							edges |= 1 << i
						default:
							t.Errorf("%s: edge %s counted %d times", r.name, Transition(i), d)
						}
					}
					if edges != r.edges {
						t.Errorf("%s: edges %#x, want %#x", r.name, edges, r.edges)
					}
					if got := countsOf(arrays[:]...).minus(before); got != r.delta {
						t.Errorf("%s: counter deltas %+v, want %+v", r.name, got, r.delta)
					}
					var got []homeEvent
					for _, e := range homeEvents(a) {
						if e.Seq > seq {
							got = append(got, homeEvent{kindName(e.Kind), e.VT})
						}
					}
					// Two nodes' replies to one command may reach the home in
					// either host order at the same virtual time.
					slices.SortFunc(got, func(x, y homeEvent) int {
						return cmp.Or(cmp.Compare(x.vt, y.vt), cmp.Compare(x.kind, y.kind))
					})
					if !slices.Equal(got, r.events) {
						t.Errorf("%s: home events %v, want %v", r.name, got, r.events)
					}
					var perms [3]uint32
					for v, b := range arrays {
						perms[v] = statePerm(b.dents[0].state.Load())
					}
					if perms != r.perms {
						t.Errorf("%s: perms %v, want %v", r.name, perms, r.perms)
					}
					dstate, shipAfter := dirOf(a)
					if dstate != r.dstate {
						t.Errorf("%s: directory state %d, want %d", r.name, dstate, r.dstate)
					}
					want := r.ship
					if mode == "on" {
						want = 0
					}
					if d := shipAfter - ship; d != want {
						t.Errorf("%s: ship estimator events moved by %d, want %d", r.name, d, want)
					}
					if clock != r.clock {
						t.Errorf("%s: actor's clock %d, want %d", r.name, clock, r.clock)
					}
				}
				c.Barrier(ctx)
			})
		})
	}
}
