package core

import (
	"cmp"
	"slices"
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

// lockEv is one message a node handled on chunk 0 during a step: the
// node, its kind's name and the virtual time it arrived at, relative to
// the step's start.
type lockEv struct {
	node int
	kind string
	vt   int64
}

// lockCtrs are the lock counters a step can move, summed over the nodes;
// fills are writer fills.
type lockCtrs struct {
	leaseGrants, recalls, fills, declines, closes, drains int64
	readerFills, resumes                                  int64
}

func lockCtrsOf(arrays ...*Array) lockCtrs {
	var s lockCtrs
	for _, a := range arrays {
		m := &a.Metrics
		s.leaseGrants += m.LeaseGrants.Load()
		s.recalls += m.LeaseRecalls.Load()
		s.fills += m.WriterFills.Load()
		s.declines += m.FillDeclines.Load()
		s.closes += m.GateCloses.Load()
		s.drains += m.GateDrains.Load()
		s.readerFills += m.ReaderFills.Load()
		s.resumes += m.LeaseResumes.Load()
	}
	return s
}

func (s lockCtrs) minus(o lockCtrs) lockCtrs {
	return lockCtrs{s.leaseGrants - o.leaseGrants, s.recalls - o.recalls, s.fills - o.fills,
		s.declines - o.declines, s.closes - o.closes, s.drains - o.drains,
		s.readerFills - o.readerFills, s.resumes - o.resumes}
}

// lockWorker is an application thread of a node that a step hands one
// lock call to and that may stay blocked in it across steps; done
// reports its clock when the call returns.
type lockWorker struct {
	ctx  *cluster.Ctx
	job  chan func(*cluster.Ctx)
	done chan int64
}

func newLockWorker(ctx *cluster.Ctx) *lockWorker {
	w := &lockWorker{ctx: ctx, job: make(chan func(*cluster.Ctx)), done: make(chan int64, 1)}
	go func() {
		for f := range w.job {
			f(w.ctx)
			w.done <- w.ctx.Clock.Now()
		}
	}()
	return w
}

// start hands f to the worker from virtual time at on.
func (w *lockWorker) start(at int64, f func(*cluster.Ctx)) {
	w.job <- func(ctx *cluster.Ctx) {
		ctx.Clock.AdvanceTo(at)
		f(ctx)
	}
}

// lockNode is one node of TestLockEdges: its array, its main thread and
// two workers.
type lockNode struct {
	a   *Array
	ctx *cluster.Ctx
	w   [2]*lockWorker
}

// eventsSince returns the messages every node handled on chunk 0 after
// the sequence numbers seqs (one per node), at virtual times relative to
// at, sorted by (vt, node, kind).
func eventsSince(nodes []*lockNode, seqs []uint64, at int64) []lockEv {
	var out []lockEv
	for v, ln := range nodes {
		for _, e := range ln.a.TraceEvents() {
			if e.Chunk == 0 && e.Seq > seqs[v] {
				out = append(out, lockEv{v, kindName(e.Kind), e.VT - at})
			}
		}
	}
	slices.SortFunc(out, func(x, y lockEv) int {
		return cmp.Or(cmp.Compare(x.vt, y.vt), cmp.Compare(x.node, y.node), cmp.Compare(x.kind, y.kind))
	})
	return out
}

// lastSeqs is every node's latest event sequence number on chunk 0.
func lastSeqs(nodes []*lockNode) []uint64 {
	seqs := make([]uint64, len(nodes))
	for v, ln := range nodes {
		for _, e := range ln.a.TraceEvents() {
			if e.Chunk == 0 {
				seqs[v] = max(seqs[v], e.Seq)
			}
		}
	}
	return seqs
}

// drainRuntimes returns once every node's runtime goroutine has finished
// what it was handling: a message recorded in the event ring is handled
// by the time a later submission runs.
func drainRuntimes(nodes []*lockNode) {
	for _, ln := range nodes {
		done := make(chan struct{})
		ln.a.rtOf(0).Submit(func(*cluster.Runtime) { close(done) })
		<-done
	}
}

// lesseeMask reads the home's lessee mask of element idx (0 with no
// table entry).
func lesseeMask(home *Array, idx int64) uint64 {
	var mask uint64
	done := make(chan struct{})
	home.rtOf(idx / home.sh.chunkWords).Submit(func(rt *cluster.Runtime) {
		defer close(done)
		if ls := home.rstate(rt).locks[idx]; ls != nil {
			mask = ls.lessees
		}
	})
	<-done
	return mask
}

// gateWord is element idx's gate word on a's node (0 with no gate).
func gateWord(a *Array, idx int64) uint64 {
	if g := a.gateOf(idx); g != nil {
		return g.word.Load()
	}
	return 0
}

// TestLockEdges drives element 5's lock (chunk 0, homed on node 0; nodes
// 1 and 2 request it remotely) through every lock request — local and
// remote reader and writer, unlock, lease-recall, lease-release and
// fill-decline — against the table states free, readers, writer,
// leased, recalled and queued, with the requester's copy of the chunk
// readable or not. A step's prep (a data access to element 9 of the same
// chunk) sets the requester's copy and is not measured. For each step it
// pins the messages every node handled on the chunk with their virtual
// times, the virtual times of the lock calls it completes, every node's
// gate word of the element, the home's lessee mask and the lock counters
// that move. Each step starts its clocks at a fresh base, so a step's
// times do not depend on how long the steps before it took. The literals
// are the lock protocol's observable behaviour: a change to how the table
// grants must change only the rows it means to.
func TestLockEdges(t *testing.T) {
	const (
		E    = 5 // the element whose lock the steps take
		O    = 9 // another element of chunk 0, for the data preps
		span = 1_000_000
	)
	type row struct {
		name    string
		prep    func(ns []*lockNode, id int)
		actor   int
		do      func(ns []*lockNode, at int64) []int64 // returns the completed calls' clocks
		events  []lockEv
		vts     []int64 // relative to the step's start
		gates   [3]uint64
		lessees uint64
		ctrs    lockCtrs
	}
	c := tc(t, 3, func(cfg *cluster.Config) {
		cfg.Model, cfg.RuntimeThreads, cfg.PrefetchAhead, cfg.TxBurst = vtime.Default(), 1, -1, 1
	})
	ev := func(kv ...any) []lockEv {
		var out []lockEv
		for i := 0; i < len(kv); i += 3 {
			out = append(out, lockEv{kv[i].(int), kv[i+1].(string), int64(kv[i+2].(int))})
		}
		return out
	}
	vts := func(v ...int64) []int64 { return v }
	// The requester's copy of chunk 0: invalid everywhere but at the
	// home, Shared, or Dirty on node k.
	invalidate := func(ns []*lockNode, id int) {
		if id == 0 {
			ns[0].a.Set(ns[0].ctx, O, 1)
		}
	}
	readOn := func(k int) func([]*lockNode, int) {
		return func(ns []*lockNode, id int) {
			if id == k {
				ns[k].a.Get(ns[k].ctx, O)
			}
		}
	}
	writeOn := func(k int) func([]*lockNode, int) {
		return func(ns []*lockNode, id int) {
			if id == k {
				ns[k].a.Set(ns[k].ctx, O, 2)
			}
		}
	}
	// pairsOn has node k take and drop the read lock n times, none of them
	// leasing: they extend the chunk's read run.
	pairsOn := func(k, n int) func([]*lockNode, int) {
		return func(ns []*lockNode, id int) {
			if id == k {
				readPairs(ns[k].a, ns[k].ctx, E, n)
				settle(t, ns[k].a)
			}
		}
	}
	// seq runs preps one after another, all nodes passing a barrier
	// between them.
	seq := func(parts ...func([]*lockNode, int)) func([]*lockNode, int) {
		return func(ns []*lockNode, id int) {
			for k, p := range parts {
				if k > 0 {
					c.Barrier(ns[id].ctx)
				}
				p(ns, id)
			}
		}
	}
	// main thread calls, completing at once
	rlock := func(k int) func([]*lockNode, int64) []int64 {
		return func(ns []*lockNode, _ int64) []int64 {
			ns[k].a.RLock(ns[k].ctx, E)
			return vts(ns[k].ctx.Clock.Now())
		}
	}
	wlock := func(k int) func([]*lockNode, int64) []int64 {
		return func(ns []*lockNode, _ int64) []int64 {
			ns[k].a.WLock(ns[k].ctx, E)
			return vts(ns[k].ctx.Clock.Now())
		}
	}
	unlock := func(k int) func([]*lockNode, int64) []int64 {
		return func(ns []*lockNode, _ int64) []int64 {
			ns[k].a.Unlock(ns[k].ctx, E)
			return vts(ns[k].ctx.Clock.Now())
		}
	}
	// worker calls: start one, or collect the clocks of the ones a step
	// completes.
	start := func(k, w int, f func(a *Array, ctx *cluster.Ctx)) func([]*lockNode, int64) {
		return func(ns []*lockNode, at int64) {
			ns[k].w[w].start(at, func(ctx *cluster.Ctx) { f(ns[k].a, ctx) })
		}
	}
	wRLock := func(a *Array, ctx *cluster.Ctx) { a.RLock(ctx, E) }
	wWLock := func(a *Array, ctx *cluster.Ctx) { a.WLock(ctx, E) }
	wUnlock := func(a *Array, ctx *cluster.Ctx) { a.Unlock(ctx, E) }
	type wref struct{ node, w int }
	then := func(s func([]*lockNode, int64), until func(ns []*lockNode) bool, collect ...wref) func([]*lockNode, int64) []int64 {
		return func(ns []*lockNode, at int64) []int64 {
			s(ns, at)
			if until != nil {
				await(func() bool { return until(ns) })
			}
			var out []int64
			for _, r := range collect {
				out = append(out, <-ns[r.node].w[r.w].done)
			}
			return out
		}
	}
	main := func(f func([]*lockNode, int64) []int64, collect ...wref) func([]*lockNode, int64) []int64 {
		return func(ns []*lockNode, at int64) []int64 {
			out := f(ns, at)
			for _, r := range collect {
				out = append(out, <-ns[r.node].w[r.w].done)
			}
			return out
		}
	}
	queued := func(k int) func(ns []*lockNode) bool {
		return func(ns []*lockNode) bool { _, _, q := lockCounts(ns[0].a, E); return q == k }
	}
	done := func(k, w int) func(ns []*lockNode) bool {
		return func(ns []*lockNode) bool { return len(ns[k].w[w].done) == 1 }
	}
	const open = gateOpen
	hits := func(n uint64) uint64 { return n << gateHitShift }
	rows := []row{
		// Leased, then recalled with a reader inside and writers and readers
		// queued behind the recall.
		{name: "free: remote reader, chunk not readable, leases", prep: invalidate, actor: 1, do: rlock(1),
			vts: vts(3119), events: ev(0, "lock-req", 1342, 1, "data-resp", 2805), gates: [3]uint64{0, open | 1, 0}, lessees: 0b10, ctrs: lockCtrs{leaseGrants: 1, readerFills: 1}},
		{name: "leased: lessee reader unlock through the gate", actor: 1, do: unlock(1),
			vts: vts(26), gates: [3]uint64{0, open, 0}, lessees: 0b10},
		{name: "leased: lessee reader through the gate, chunk readable", prep: readOn(1), actor: 1, do: rlock(1),
			vts: vts(26), gates: [3]uint64{0, open | hits(1) | 1, 0}, lessees: 0b10},
		{name: "leased: local reader through the table", actor: 0, do: rlock(0),
			vts: vts(474), gates: [3]uint64{open, open | hits(1) | 1, 0}, lessees: 0b10},
		{name: "leased+readers: remote writer, chunk not readable, recalls and is declined", actor: 2,
			do:     then(start(2, 0, wWLock), nil),
			events: ev(0, "lock-req", 1342, 1, "lease-recall", 2580, 2, "fill-decline", 2663), gates: [3]uint64{0, hits(1) | 1, 0}, lessees: 0b10, ctrs: lockCtrs{recalls: 1, declines: 1, closes: 2}},
		{name: "recalled+queued: remote reader on the recalled lessee queues", actor: 1,
			do:     then(start(1, 0, wRLock), nil),
			events: ev(0, "lock-req", 1342), gates: [3]uint64{0, hits(1) | 1, 0}, lessees: 0b10},
		{name: "recalled+queued: local reader queues", actor: 0, do: then(start(0, 0, wRLock), queued(3)),
			gates: [3]uint64{0, hits(1) | 1, 0}, lessees: 0b10},
		{name: "recalled: last lessee reader out releases the lease", actor: 1, do: unlock(1),
			vts: vts(26), events: ev(0, "lease-release", 1014), gates: [3]uint64{0, 0, 0}, ctrs: lockCtrs{drains: 1}},
		{name: "readers+queued: local reader unlock grants the queued writer", actor: 0,
			do:  main(unlock(0), wref{2, 0}),
			vts: vts(83, 1358), events: ev(2, "lock-grant", 1108), gates: [3]uint64{0, 0, 0}},
		{name: "writer+queued: remote writer unlock grants the queued readers", actor: 2,
			do:  then(start(2, 0, wUnlock), done(0, 0), wref{2, 0}, wref{1, 0}, wref{0, 0}),
			vts: vts(83, 2596, 1358), events: ev(0, "unlock", 988, 1, "lock-grant", 2346), gates: [3]uint64{open, 0, 0}},
		{name: "readers: remote reader unlock", actor: 1, do: then(start(1, 0, wUnlock), nil, wref{1, 0}),
			vts: vts(83), events: ev(0, "unlock", 988), gates: [3]uint64{open, 0, 0}},
		{name: "readers: local reader unlock frees the lock", actor: 0,
			do:  then(start(0, 0, wUnlock), func(ns []*lockNode) bool { return lesseeMask(ns[0].a, E) == 0 }, wref{0, 0}),
			vts: vts(83), gates: [3]uint64{open, 0, 0}},

		// Writers on a free lock, with and without the chunk.
		{name: "free: remote writer, chunk readable, filled", prep: readOn(1), actor: 1, do: wlock(1),
			vts: vts(3119), events: ev(0, "lock-req", 1342, 1, "data-resp", 2805), gates: [3]uint64{0, 0, 0}, ctrs: lockCtrs{fills: 1, closes: 1}},
		{name: "writer: remote writer unlock", actor: 1, do: unlock(1),
			vts: vts(83), events: ev(0, "unlock", 988), gates: [3]uint64{0, 0, 0}},
		{name: "free: remote writer, chunk writable, not filled", actor: 1, do: wlock(1),
			vts: vts(2950), events: ev(0, "lock-req", 1342, 1, "lock-grant", 2700), gates: [3]uint64{0, 0, 0}},
		{name: "writer: remote writer unlock again", actor: 1, do: unlock(1),
			vts: vts(83), events: ev(0, "unlock", 988), gates: [3]uint64{0, 0, 0}},
		{name: "free: remote reader, chunk readable (Dirty), unleased", actor: 1, do: rlock(1),
			vts: vts(2950), events: ev(0, "lock-req", 1342, 1, "lock-grant", 2700), gates: [3]uint64{0, 0, 0}},
		{name: "readers: remote reader, chunk not readable, leases", actor: 2, do: rlock(2),
			vts: vts(5764), events: ev(0, "lock-req", 1342, 1, "downgrade", 2700, 0, "writeback", 4043, 2, "data-resp", 5450), gates: [3]uint64{0, 0, open | 1}, lessees: 0b100, ctrs: lockCtrs{leaseGrants: 1, readerFills: 1}},
		{name: "leased: lessee reader unlock through the gate", actor: 2, do: unlock(2),
			vts: vts(26), gates: [3]uint64{0, 0, open}, lessees: 0b100},
		{name: "leased+readers: local writer recalls, lessee gate empty", actor: 0,
			do:     then(start(0, 1, wWLock), func(ns []*lockNode) bool { return lesseeMask(ns[0].a, E) == 0 }),
			events: ev(2, "lease-recall", 1342, 0, "lease-release", 2580), gates: [3]uint64{0, 0, 0}, ctrs: lockCtrs{recalls: 1, closes: 1}},
		{name: "readers: remote reader unlock grants the local writer", actor: 1, do: main(unlock(1), wref{0, 1}),
			vts: vts(83, 1358), events: ev(0, "unlock", 988), gates: [3]uint64{0, 0, 0}},
		{name: "writer: local writer unlock", actor: 0, do: then(start(0, 1, wUnlock), nil, wref{0, 1}),
			vts: vts(83), gates: [3]uint64{0, 0, 0}},
		{name: "free: remote reader, chunk writable, unleased", prep: writeOn(1), actor: 1, do: rlock(1),
			vts: vts(2950), events: ev(0, "lock-req", 1342, 1, "lock-grant", 2700), gates: [3]uint64{0, 0, 0}},
		{name: "readers: remote writer, chunk writable, queues", actor: 1, do: then(start(1, 1, wWLock), nil),
			events: ev(0, "lock-req", 1342), gates: [3]uint64{0, 0, 0}},
		{name: "readers+queued: local writer queues behind it", actor: 0, do: then(start(0, 1, wWLock), queued(2)),
			gates: [3]uint64{0, 0, 0}},
		{name: "readers+queued: remote reader queues behind them", prep: readOn(2), actor: 2,
			do:     then(start(2, 0, wRLock), nil),
			events: ev(0, "lock-req", 1342), gates: [3]uint64{0, 0, 0}},
		{name: "readers+queued: remote reader unlock grants the remote writer", actor: 1, do: main(unlock(1), wref{1, 1}),
			vts: vts(83, 2596), events: ev(0, "unlock", 988, 1, "lock-grant", 2346), gates: [3]uint64{0, 0, 0}},
		{name: "writer+queued: remote writer unlock grants the local writer", actor: 1,
			do:  then(start(1, 1, wUnlock), nil, wref{1, 1}, wref{0, 1}),
			vts: vts(83, 1358), events: ev(0, "unlock", 988), gates: [3]uint64{0, 0, 0}},
		{name: "writer+queued: local writer unlock grants the remote reader", actor: 0,
			do:  then(start(0, 1, wUnlock), nil, wref{0, 1}, wref{2, 0}),
			vts: vts(83, 1358), events: ev(2, "lock-grant", 1108), gates: [3]uint64{0, 0, 0}},
		{name: "readers: remote reader unlock frees the lock", actor: 2, do: then(start(2, 0, wUnlock), nil, wref{2, 0}),
			vts: vts(83), events: ev(0, "unlock", 988), gates: [3]uint64{0, 0, 0}},

		// The home's own readers and writers on a free lock.
		{name: "free: local reader", actor: 0, do: rlock(0),
			vts: vts(474), gates: [3]uint64{open, 0, 0}},
		{name: "readers: local reader through the open gate", actor: 0,
			do:  then(start(0, 0, wRLock), done(0, 0), wref{0, 0}),
			vts: vts(26), gates: [3]uint64{open | hits(1) | 1, 0, 0}},
		{name: "readers: local gate reader unlock", actor: 0, do: then(start(0, 0, wUnlock), done(0, 0), wref{0, 0}),
			vts: vts(26), gates: [3]uint64{open | hits(1), 0, 0}},
		{name: "readers: local table reader unlock", actor: 0, do: unlock(0),
			vts: vts(83), gates: [3]uint64{open | hits(1), 0, 0}},
		{name: "free: local writer", actor: 0, do: wlock(0),
			vts: vts(474), gates: [3]uint64{0, 0, 0}, ctrs: lockCtrs{closes: 1}},
		{name: "writer: remote reader, chunk not readable, queues", prep: invalidate, actor: 2,
			do:     then(start(2, 0, wRLock), nil),
			events: ev(0, "lock-req", 1342, 2, "fill-decline", 2580), gates: [3]uint64{0, 0, 0}, ctrs: lockCtrs{declines: 1}},
		{name: "writer+queued: local writer unlock grants the remote reader", actor: 0,
			do:  main(unlock(0), wref{2, 0}),
			vts: vts(83, 1358), events: ev(2, "lock-grant", 1108), gates: [3]uint64{0, 0, 0}},
		{name: "readers: remote reader unlock", actor: 2, do: then(start(2, 0, wUnlock), nil, wref{2, 0}),
			vts: vts(83), events: ev(0, "unlock", 988), gates: [3]uint64{0, 0, 0}},

		// A lessee's own writer: the lease returned unpaid, then paid.
		{name: "free: remote reader, chunk readable, leases", prep: seq(pairsOn(2, 2), invalidate, readOn(1)), actor: 1, do: rlock(1),
			vts: vts(2950), events: ev(0, "lock-req", 1342, 1, "lock-grant", 2700), gates: [3]uint64{0, open | 1, 0}, lessees: 0b10, ctrs: lockCtrs{leaseGrants: 1}},
		{name: "leased: lessee reader unlock", actor: 1, do: unlock(1),
			vts: vts(26), gates: [3]uint64{0, open, 0}, lessees: 0b10},
		{name: "leased (unpaid): lessee writer returns the lease, filled", actor: 1, do: wlock(1),
			vts: vts(3119), events: ev(0, "lock-req", 1342, 1, "data-resp", 2805), gates: [3]uint64{0, 0, 0}, ctrs: lockCtrs{fills: 1, closes: 1}},
		{name: "writer: the unpaid lessee writer's unlock", actor: 1, do: unlock(1),
			vts: vts(83), events: ev(0, "unlock", 988), gates: [3]uint64{0, 0, 0}},
		{name: "free: remote reader, chunk writable, leases", prep: seq(pairsOn(2, 7), invalidate, writeOn(1)), actor: 1, do: rlock(1),
			vts: vts(2950), events: ev(0, "lock-req", 1342, 1, "lock-grant", 2700), gates: [3]uint64{0, open | 1, 0}, lessees: 0b10, ctrs: lockCtrs{leaseGrants: 1}},
		{name: "leased: lessee reader pairs through the gate", actor: 1,
			do: func(ns []*lockNode, _ int64) []int64 {
				a, ctx := ns[1].a, ns[1].ctx
				a.Unlock(ctx, E)
				readPairs(a, ctx, E, 3)
				return vts(ctx.Clock.Now())
			},
			vts: vts(182), gates: [3]uint64{0, open | hits(3), 0}, lessees: 0b10},
		{name: "leased (paid): lessee writer returns the lease, chunk writable", actor: 1, do: wlock(1),
			vts: vts(2950), events: ev(0, "lock-req", 1342, 1, "lock-grant", 2700), gates: [3]uint64{0, 0, 0}, ctrs: lockCtrs{closes: 1}},
		{name: "writer: the paid lessee writer's unlock", actor: 1, do: unlock(1),
			vts: vts(83), events: ev(0, "unlock", 988), gates: [3]uint64{0, open, 0}, lessees: 0b10, ctrs: lockCtrs{resumes: 1}},
	}
	_ = hits
	nodes := make([]*lockNode, 3)
	var seqs []uint64
	var before lockCtrs
	runBounded(t, c, func(n *cluster.Node) {
		id := n.ID()
		ln := &lockNode{a: New(n, 3*4*64), ctx: n.NewCtx(0)} // chunks 0-3 homed on node 0
		for w := range ln.w {
			ln.w[w] = newLockWorker(n.NewCtx(1 + w))
		}
		nodes[id] = ln
		ctx := ln.ctx
		arrays := func() []*Array {
			var as []*Array
			for _, x := range nodes {
				as = append(as, x.a)
			}
			return as
		}
		for k, r := range rows {
			base := int64(k+1) * span
			c.Barrier(ctx)
			ctx.Clock.AdvanceTo(base)
			if r.prep != nil {
				r.prep(nodes, id)
			}
			c.Barrier(ctx)
			if id == 0 {
				drainRuntimes(nodes)
				seqs, before = lastSeqs(nodes), lockCtrsOf(arrays()...)
			}
			c.Barrier(ctx)
			at := base + span/2
			var got []int64
			if id == r.actor {
				ctx.Clock.AdvanceTo(at)
				for _, v := range r.do(nodes, at) {
					got = append(got, v-at)
				}
				await(func() bool { return len(eventsSince(nodes, seqs, at)) >= len(r.events) })
				drainRuntimes(nodes)
				if !slices.Equal(got, r.vts) {
					t.Errorf("%s: clocks %v, want %v", r.name, got, r.vts)
				}
			}
			c.Barrier(ctx)
			if id != 0 {
				continue
			}
			evs := eventsSince(nodes, seqs, at)
			if !slices.Equal(evs, r.events) {
				t.Errorf("%s: events %v, want %v", r.name, evs, r.events)
			}
			var gates [3]uint64
			for v, x := range nodes {
				gates[v] = gateWord(x.a, E)
			}
			if gates != r.gates {
				t.Errorf("%s: gate words %#x, want %#x", r.name, gates, r.gates)
			}
			if m := lesseeMask(ln.a, E); m != r.lessees {
				t.Errorf("%s: lessees %b, want %b", r.name, m, r.lessees)
			}
			if d := lockCtrsOf(arrays()...).minus(before); d != r.ctrs {
				t.Errorf("%s: counter deltas %+v, want %+v", r.name, d, r.ctrs)
			}
		}
		c.Barrier(ctx)
		for _, w := range ln.w {
			close(w.job)
		}
	})
}
