package core

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"darray/internal/buf"
	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/trace"
)

// Protocol message kinds. Requests flow cache→home, grants and
// coherence commands flow home→cache; the fabric guarantees per-pair
// FIFO and chunk→runtime placement guarantees per-chunk ordering.
// kindNames below is the one table naming every kind for the event
// recorder, spans and the fabric's per-kind reports; the local events
// the recorder logs beside the messages follow the wire kinds in it.
//
// Flag on a write-req announces a whole-chunk overwrite; the data-resp
// answering it is flagged too and carries no payload (see grantData).
// A data-resp with grantsLock set in Val is a remote lock grant that
// carries its chunk, and a reader's lease with grantsLease (see lock.go).
const (
	msgReadReq uint8 = iota
	msgWriteReq
	msgOperateReq
	msgDataResp // Val carries the granted permission (and grantsLock, grantsLease; Idx names the element)
	msgOpGrant
	msgInvalidate
	msgInvAck
	msgDowngrade    // Dirty owner: write back, keep a Shared copy
	msgRecall       // Dirty owner: write back and invalidate
	msgOpRecall     // operating node: flush combined operands, invalidate
	msgWBData       // chunk data to home (recall response or voluntary evict)
	msgOpFlush      // combined operands to home
	msgLockReq      // Idx = element, Flag = writer, Val = piggybacked lease return and fill request (see lock.go)
	msgLockGrant    // Val has grantsLease when the grant carries a reader lease
	msgUnlock       // Flag = the sender's suspended lease on Idx resumes
	msgShipOp       // shipped Operate: Idx = offset, Val = operand (Flag: Data = batch)
	msgShipReply    // shipped Operate done; Val carries the home's mode hint
	msgLeaseRecall  // home → lessee: a writer is queued on element Idx
	msgLeaseRelease // lessee → home: lease on Idx returned, Val = local hits it served
	msgFillDecline  // home → writer: the lock-req on Idx queues; its fill is declined
	evLocalReq      // local: an application thread's slow-path request reached the runtime
	evEvict         // local: reclamation evicts the chunk's line
	evShipReq       // local: an Apply ships to the home
	numKinds
)

var kindNames = [numKinds]string{
	msgReadReq:      "read-req",
	msgWriteReq:     "write-req",
	msgOperateReq:   "operate-req",
	msgDataResp:     "data-resp",
	msgOpGrant:      "op-grant",
	msgInvalidate:   "invalidate",
	msgInvAck:       "inv-ack",
	msgDowngrade:    "downgrade",
	msgRecall:       "recall",
	msgOpRecall:     "op-recall",
	msgWBData:       "writeback",
	msgOpFlush:      "op-flush",
	msgLockReq:      "lock-req",
	msgLockGrant:    "lock-grant",
	msgUnlock:       "unlock",
	msgShipOp:       "ship-op",
	msgShipReply:    "ship-reply",
	msgLeaseRecall:  "lease-recall",
	msgLeaseRelease: "lease-release",
	msgFillDecline:  "fill-decline",
	evLocalReq:      "local-req",
	evEvict:         "evict",
	evShipReq:       "ship-req",
}

// kindName maps a protocol message kind to its stable name.
func kindName(k uint8) string {
	if k < numKinds {
		return kindNames[k]
	}
	return fmt.Sprintf("kind-%d", k)
}

// cmdRow is one coherence command the home sends the nodes holding a
// copy of a chunk (paper Table 1 and Fig. 5; the Operated collapse of
// §4.3), and the code's one statement of the drop/ack rule (PROTOCOL.md
// "Evictions and crossings"). A node obeys it (obey): a command that
// finds no line holding `about` is dropped, since the node gave that up
// on its own, except that an invalidation is acked anyway; otherwise the
// line is demoted to `keep` and `reply` goes home. The home sends it
// through demand, which awaits one reply per node and closes the
// `fanout` span over the round. The counter each message moves follows
// its kind (countSent).
type cmdRow struct {
	about  uint32 // the permission the command is about
	keep   uint32 // the permission the line keeps
	reply  uint8  // inv-ack carries nothing; writeback and op-flush the line's words, copied if it keeps Read, else donated
	fanout string // the home's span over the whole round; a writeback's own merge-wb span covers its wait
}

var cmdRows = [numKinds]cmdRow{
	msgInvalidate: {about: permRead, keep: permInvalid, reply: msgInvAck, fanout: "inv-fanout"},
	msgDowngrade:  {about: permRW, keep: permRead, reply: msgWBData},
	msgRecall:     {about: permRW, keep: permInvalid, reply: msgWBData},
	msgOpRecall:   {about: permOperated, keep: permInvalid, reply: msgOpFlush, fanout: "op-collapse"},
}

// countSent moves the counter a coherence message moves when it is sent:
// the home's recalls and downgrades, a node's invalidation acks,
// writebacks and op-flushes.
func (a *Array) countSent(kind uint8) {
	m := &a.Metrics
	switch kind {
	case msgRecall:
		m.Recalls.Add(1)
	case msgDowngrade:
		m.Downgrades.Add(1)
	case msgInvAck:
		m.Invals.Add(1)
	case msgWBData:
		m.WriteBacks.Add(1)
	case msgOpFlush:
		m.OpFlushes.Add(1)
	}
}

type fMsg struct {
	to    int
	kind  uint8
	chunk int64
	op    OpID
	idx   int64
	val   uint64
	flag  bool
	data  []uint64
	pay   *buf.Ref // pool buffer backing data; ownership moves with the send
	vt    int64
	tc    trace.Ctx // causal-trace chain to carry in the message header
}

func (a *Array) send(m *fMsg) {
	fm := fabric.NewMessage()
	fm.To, fm.Array, fm.Kind, fm.Chunk = m.to, a.sh.id, m.kind, m.chunk
	fm.OpID, fm.Idx, fm.Val, fm.Flag = int32(m.op), m.idx, m.val, m.flag
	fm.Data, fm.Payload, fm.SendVT = m.data, m.pay, m.vt
	fm.Trace, fm.PSpan, fm.QueuedVT = m.tc.Trace, m.tc.Span, m.vt
	a.node.Send(fm)
}

// charge accounts one runtime service slot starting at vt and returns
// the virtual completion time (zero when no model is configured).
func (a *Array) charge(rt *cluster.Runtime, vt int64) int64 {
	_, end := a.charge2(rt, vt)
	return end
}

// charge2 is charge exposing the slot's start time as well: start - vt
// is how long the request sat in the runtime's RPC queue, the first
// segment of a slow-path miss's latency breakdown.
func (a *Array) charge2(rt *cluster.Runtime, vt int64) (start, end int64) {
	m := a.model
	if m == nil {
		return 0, 0
	}
	return rt.Res.Acquire(vt, m.RPCService)
}

func (a *Array) copyCost(words int) int64 {
	if a.model == nil {
		return 0
	}
	return a.model.CopyCost(8 * words)
}

func (a *Array) self() int { return a.node.ID() }

// handleMsg is the Rx route target: it runs on the runtime goroutine
// owning m.Chunk.
//
// Message lifecycle: every handler except the two grant installers is
// synchronous — any data it needs from m is consumed before it returns
// (serveHome copies the request fields; handleWBData and handleOpFlush
// copy/merge the payload into the home region inline) — so m is
// recycled here on return. msgDataResp/msgOpGrant may stall (line
// allocation, reference drain) with m captured by the continuation;
// those handlers own m and recycle it once the install completes.
//
// Every message served is recorded in the runtime's event ring first.
func (a *Array) handleMsg(rt *cluster.Runtime, m *fabric.Message) {
	d := &a.dents[m.Chunk]
	start, svt := a.charge2(rt, m.VT)
	tc := a.msgSpans(m, start, svt)
	s := a.rstate(rt)
	s.record(m.Kind, m.Chunk, m.From, m.VT, tc)
	switch m.Kind {
	case msgLockReq, msgLockGrant, msgUnlock, msgLeaseRecall, msgLeaseRelease, msgFillDecline:
		a.handleLockMsg(rt, m, svt, tc)
	case msgReadReq:
		a.serveHome(rt, d, homeReq{from: m.From, want: wantRead, vt: svt, tc: tc})
	case msgWriteReq:
		a.serveHome(rt, d, homeReq{from: m.From, want: wantWrite, vt: svt, tc: tc, nodata: m.Flag})
	case msgOperateReq:
		a.serveHome(rt, d, homeReq{from: m.From, want: wantOperate, op: OpID(m.OpID), vt: svt, tc: tc})
	case msgDataResp:
		a.handleDataResp(rt, d, m, svt, tc)
		return // the install continuation recycles m
	case msgOpGrant:
		a.handleOpGrant(rt, d, m, svt)
		return // the install continuation recycles m
	case msgInvalidate, msgDowngrade, msgRecall, msgOpRecall:
		a.obey(rt, d, m.Kind, m.From, svt, tc)
	case msgInvAck:
		a.handleInvAck(rt, d, svt)
	case msgWBData:
		a.handleWBData(rt, d, m, svt, tc)
	case msgOpFlush:
		a.handleOpFlush(rt, d, m, svt)
	case msgShipOp:
		r := homeReq{from: m.From, want: wantShip, op: OpID(m.OpID), vt: svt, tc: tc,
			idx: m.Idx, val: m.Val}
		if m.Flag {
			// Batched variant: the operand buffer (and its pooled backing)
			// moves to the request so it survives deferrals and
			// continuations; shipApply releases it after the merge.
			r.data, r.pay = m.Data, m.Payload
			m.Payload = nil
		}
		a.serveHome(rt, d, r)
	case msgShipReply:
		a.handleShipReply(rt, d, m, svt, tc)
	default:
		s.panicChunk(m.Chunk, fmt.Sprintf("core: unknown message kind %d", m.Kind))
	}
	a.recycleMsg(m)
}

// handleLocal is the runtime-side entry for a local slow-path request.
func (a *Array) handleLocal(rt *cluster.Runtime, d *dentry, ci int64, w *waiter) {
	start, svt := a.charge2(rt, w.vt)
	if w.tc.Valid() && a.traceOn() {
		tc := a.child(w.tc, a.self(), trace.StageQueue, "rt-queue", ci, w.vt, start)
		w.tc = a.child(tc, a.self(), trace.StageService, "local-req", ci, start, svt)
	}
	a.rstate(rt).record(evLocalReq, ci, -1, w.vt, w.tc)
	if satisfies(d.state.Load(), w.want, w.op) {
		w.vt = svt
		a.respond(rt, d, w, maxi64(svt, d.tvt))
		return
	}
	w.vt = svt
	if a.homeOfChunk(ci) == a.self() {
		// Only a request that directly starts its directory transaction
		// counts as linked: its wait is decomposed by the transaction's
		// own spans. A deferral leaves linked false so respond's
		// chunk-wait span covers the opaque busy window.
		if !d.busy {
			w.linked = true
		}
		a.serveHome(rt, d, homeReq{from: a.self(), want: baseWant(w.want), op: w.op, vt: svt, w: w, tc: w.tc})
	} else {
		a.cacheRequest(rt, d, w)
	}
}

// respond completes a local waiter. For pin requests the runtime takes
// the reference on the waiter's behalf before replying, closing the
// window in which another transition could intervene.
func (a *Array) respond(rt *cluster.Runtime, d *dentry, w *waiter, vt int64) {
	if w.tc.Valid() && !w.linked && vt > w.vt && a.traceOn() {
		// Piggybacked or deferred waiter: its wait is not decomposed by a
		// transaction chain of its own, so one queue span covers it.
		a.child(w.tc, a.self(), trace.StageQueue, "chunk-wait", d.ci, w.vt, vt)
	}
	var val uint64
	if isPin(w.want) && satisfies(d.state.Load(), w.want, w.op) {
		d.refcnt.Add(1)
		val = 1
	}
	// d.retrans is non-zero only while a remote grant whose delivery
	// needed go-back-N recovery completes its waiters: the loss signal
	// the requester's congestion controller reacts to. Linked tells that
	// controller whether this completion is a round trip of its own.
	resp := cluster.Resp{VT: vt, Val: val, RetransNs: d.retrans, Linked: w.linked, Filled: w.filled}
	tok := w.tok
	a.putWaiter(w) // every slow-path waiter is released exactly here
	tok.Complete(resp)
}

func maxi64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func mini64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}

// ---------------------------------------------------------------------------
// Home side: the directory state machine (paper Figure 9, Table 1).

// homeReq is one request to a chunk's directory. The same record parks
// in dentry.defrd while the chunk is busy — on the home side a request
// behind the transaction in flight, on the cache side a coherence
// command (want is then its wire kind) behind an eviction or a stalled
// grant installation.
type homeReq struct {
	from int   // requesting node (== home id for local requests)
	want uint8 // wantRead/wantWrite/wantOperate/wantShip (pin variants local only)
	op   OpID
	vt   int64
	w    *waiter   // non-nil for local requests
	tc   trace.Ctx // requester's causal-trace chain (zero when untraced)

	// nodata (want == wantWrite, remote): the requester will overwrite
	// every word of the chunk, so the RW grant carries no payload.
	nodata bool

	// lock (want == wantRead or wantWrite, remote): the grant also
	// carries the lock on element idx in the mode the want names, which
	// the lock table granted the requester when its request arrived, and
	// for a reader the lease leaseGrant may add (lock.go).
	lock bool

	// Shipped-Operate operands (want == wantShip): the element offset
	// within the chunk, a single operand (val) or a batch (data, with
	// pay owning its pooled backing).
	idx  int64
	val  uint64
	data []uint64
	pay  *buf.Ref
}

// serveHome starts (or defers) a directory transaction for chunk d.
func (a *Array) serveHome(rt *cluster.Runtime, d *dentry, r homeReq) {
	if d.busy {
		d.defrd = append(d.defrd, r)
		return
	}
	d.busy = true
	if r.tc.Valid() && d.tvt > r.vt && a.traceOn() {
		// The directory clock is ahead of the requester: the request spent
		// [r.vt, d.tvt] serialized behind earlier transactions on this
		// chunk (including any time parked in the deferred list).
		r.tc = a.child(r.tc, a.self(), trace.StageQueue, "dir-wait", d.ci, r.vt, d.tvt)
	}
	d.tvt = maxi64(d.tvt, r.vt)
	d.tctx = r.tc
	if r.want == wantShip {
		// Once per transaction, however many steps the op waits through.
		a.noteShip(d, r.from, 0)
	}
	a.homeStep(rt, d, r)
}

// dirEdge is one grant edge of the home directory (paper Table 1 and
// Fig. 9): the Transition it counts, the permission the home keeps and
// the state the chunk lands in. A keep of permOperated is packed with
// the requester's operator.
type dirEdge struct {
	t    Transition
	keep uint32
	to   uint8
}

// dirEdges is every edge a remote request makes to be granted, indexed by
// directory state and base want. A zero entry (to == dirUnshared, where
// no grant lands) names none: homeStep serves such a request in place or
// reclaims the chunk for it.
var dirEdges = [dirOperated + 1][wantOperate + 1]dirEdge{
	dirUnshared: {
		wantRead:    {TransUnsharedToShared, permRead, dirShared},
		wantWrite:   {TransUnsharedToDirty, permInvalid, dirDirty},
		wantOperate: {TransUnsharedToOperated, permOperated, dirOperated},
	},
	dirShared: {
		wantWrite:   {TransSharedToDirty, permInvalid, dirDirty},
		wantOperate: {TransSharedToOperated, permOperated, dirOperated},
	},
	dirDirty: {
		wantRead: {TransDirtyToShared, permRead, dirShared},
	},
}

// homeStep is the directory's one step: it serves r in place, makes the
// one edge dirEdges names for it (grantEdge), or folds the chunk back to
// Unshared and steps again (reclaim). A step that must wait — a
// reference drain, the replies to a coherence command — continues in a
// closure; one that need not builds none.
func (a *Array) homeStep(rt *cluster.Runtime, d *dentry, r homeReq) {
	bit := uint64(1) << uint(r.from)
	switch {
	case r.from == a.self() || r.want == wantShip:
		// The home's own permission serves a local request, and a shipped
		// op combines into the backing like a home thread's Apply: in place
		// on Unshared or under its own operator, otherwise once reclaimed.
		switch {
		case !satisfies(d.state.Load(), r.want, r.op):
			a.reclaim(rt, d, r)
		case r.want == wantShip:
			a.shipApply(rt, d, r)
		default:
			a.homeFinish(rt, d, r)
		}
	case d.dstate == dirShared && r.want == wantRead:
		if d.sharers&bit == 0 {
			a.transition(TransSharedAddSharer)
		}
		d.sharers |= bit
		a.grantData(rt, d, r, permRead)
	case d.dstate == dirOperated && r.want == wantOperate && r.op == d.opID:
		var churn int32
		if d.opNodes&bit == 0 {
			a.transition(TransOperatedAddNode)
			churn = 1
		}
		a.noteShip(d, r.from, churn)
		d.opNodes |= bit
		a.grantOperate(rt, d, r)
	case d.dstate == dirDirty && int(d.owner) == r.from:
		a.rstate(rt).panicChunk(d.ci, "core: dirty owner re-requested ownership")
	case d.dstate <= dirOperated && dirEdges[d.dstate][r.want].to != dirUnshared:
		a.grantEdge(rt, d, r)
	default:
		a.reclaim(rt, d, r)
	}
}

// grantEdge clears the holders in the way of r's edge with the one
// command that does it — the other sharers are invalidated, a Dirty owner
// is downgraded and stays a sharer — and lands the edge once they have
// all answered.
func (a *Array) grantEdge(rt *cluster.Runtime, d *dentry, r homeReq) {
	var kind uint8
	var mask uint64
	switch d.dstate {
	case dirShared:
		kind, mask = msgInvalidate, d.sharers&^(1<<uint(r.from))
		d.sharers = 0
	case dirDirty:
		kind, mask = msgDowngrade, 1<<uint(d.owner)
		d.sharers = mask
	}
	if mask == 0 {
		a.landEdge(rt, d, r)
		return
	}
	a.demand(rt, d, kind, mask, func(rt *cluster.Runtime) { a.landEdge(rt, d, r) })
}

// landEdge takes r's edge: the home keeps the row's permission, waiting
// out its own references when that revokes rights (a drain re-enters
// here), then the edge is counted and the requester granted.
func (a *Array) landEdge(rt *cluster.Runtime, d *dentry, r homeReq) {
	e := dirEdges[d.dstate][r.want]
	keep := e.keep
	if keep == permOperated {
		keep = packState(permOperated, r.op)
	}
	if !a.tryDemote(d, keep) {
		a.demoteLocal(rt, d, keep, func(rt *cluster.Runtime) { a.landEdge(rt, d, r) })
		return
	}
	a.transition(e.t)
	d.dstate = e.to
	switch e.to {
	case dirShared:
		d.sharers |= 1 << uint(r.from)
		a.grantData(rt, d, r, permRead)
	case dirDirty:
		d.owner = int32(r.from)
		a.grantData(rt, d, r, permRW)
	case dirOperated:
		a.noteShip(d, r.from, 1)
		d.opID, d.opNodes = r.op, 1<<uint(r.from)
		a.grantOperate(rt, d, r)
	}
}

// reclaim folds every copy of the chunk back to the home — the sharers
// invalidated, the Dirty owner recalled, or the combiners collapsed once
// the home's own combining is revoked (a drain re-enters here) — lands it
// in Unshared with the home RW and steps r again from there.
func (a *Array) reclaim(rt *cluster.Runtime, d *dentry, r homeReq) {
	var kind uint8
	var mask uint64
	var t Transition
	switch d.dstate {
	case dirShared:
		kind, mask, t = msgInvalidate, d.sharers, TransSharedToUnshared
		d.sharers = 0
	case dirDirty:
		kind, mask, t = msgRecall, 1<<uint(d.owner), TransDirtyToUnshared
	case dirOperated:
		if !a.tryDemote(d, permInvalid) {
			a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) { a.reclaim(rt, d, r) })
			return
		}
		a.bumpShip(d) // collapse churn feeds the contention estimator
		kind, mask, t = msgOpRecall, d.opNodes, TransOperatedToUnshared
	default:
		a.rstate(rt).panicChunk(d.ci, "core: bad directory state")
	}
	if mask == 0 {
		a.unshare(d, t)
		a.homeStep(rt, d, r)
		return
	}
	a.demand(rt, d, kind, mask, func(rt *cluster.Runtime) {
		a.unshare(d, t)
		a.homeStep(rt, d, r)
	})
}

// unshare lands the chunk in Unshared with the home RW, counting edge t.
func (a *Array) unshare(d *dentry, t Transition) {
	a.transition(t)
	d.dstate, d.sharers, d.owner, d.opID, d.opNodes = dirUnshared, 0, -1, 0, 0
	d.state.Store(permRW)
}

// homeFinish completes a transaction whose requester is the home node.
func (a *Array) homeFinish(rt *cluster.Runtime, d *dentry, r homeReq) {
	if r.w != nil {
		a.respond(rt, d, r.w, d.tvt)
	}
	a.homeDone(rt, d)
}

// grantData replies to a remote requester with a copy of the chunk.
// Home storage is a contiguous registered region, so the copy out of it
// stays (and is charged) in both modes; pooling only recycles the
// buffer the copy lands in. A requester that announced a whole-chunk
// overwrite (r.nodata) would read none of those words: its RW grant
// goes out flagged and payload-free, like the dataless op-grant. A grant
// made on behalf of the lock table (r.lock) names the element whose lock
// rides it.
func (a *Array) grantData(rt *cluster.Runtime, d *dentry, r homeReq, perm uint32) {
	if r.nodata {
		a.send(&fMsg{to: r.from, kind: msgDataResp, chunk: d.ci, val: uint64(perm),
			flag: true, vt: d.tvt, tc: d.tctx})
		a.homeDone(rt, d)
		return
	}
	val := uint64(perm)
	if r.lock {
		ls := a.rstate(rt).locks[r.idx]
		val |= grantsLock | a.leaseGrant(ls, r.idx, r.want == wantRead, r.from, len(ls.queue))
	}
	data, pay := a.leasePayload(len(d.data))
	copy(data, d.data)
	cc := a.copyCost(len(data))
	tc := a.child(d.tctx, a.self(), trace.StageService, "copy-out", d.ci, d.tvt, d.tvt+cc)
	a.send(&fMsg{to: r.from, kind: msgDataResp, chunk: d.ci, idx: r.idx, val: val,
		data: data, pay: pay, vt: d.tvt + cc, tc: tc})
	a.homeDone(rt, d)
}

// grantOperate replies to a remote Operate request; no data moves (the
// requester initializes a combine buffer with the operator identity).
// Val piggybacks the home's current shipping hint so a cache that keeps
// combining under a stale grant steers to the active path after its
// next collapse.
func (a *Array) grantOperate(rt *cluster.Runtime, d *dentry, r homeReq) {
	a.send(&fMsg{to: r.from, kind: msgOpGrant, chunk: d.ci, op: d.opID,
		val: a.shipHint(d), vt: d.tvt, tc: d.tctx})
	a.homeDone(rt, d)
}

// homeDone ends the current transaction and serves deferred requests.
func (a *Array) homeDone(rt *cluster.Runtime, d *dentry) {
	d.busy = false
	a.drainDeferred(rt, d, d.ci)
}

// drainDeferred re-dispatches requests that arrived during a transaction
// (home side) or an eviction (cache side).
func (a *Array) drainDeferred(rt *cluster.Runtime, d *dentry, ci int64) {
	for !d.busy && len(d.defrd) > 0 {
		r := d.defrd[0]
		d.defrd = popFront(d.defrd) // keeps the capacity for the next deferral
		if a.homeOfChunk(ci) == a.self() {
			if r.w != nil && satisfies(d.state.Load(), r.want, r.op) {
				a.respond(rt, d, r.w, maxi64(r.vt, d.tvt))
				continue
			}
			a.serveHome(rt, d, r)
			continue
		}
		a.obey(rt, d, r.want, r.from, r.vt, r.tc) // cache side: a parked command
	}
	// A cache-side dentry may have collected waiters during an eviction.
	if !d.busy && !d.pending && len(d.waiters) > 0 && a.homeOfChunk(ci) != a.self() {
		a.issueRequest(rt, d)
	}
}

// demoteLocal changes the local access permission, waiting out live
// references when the change revokes rights (paper Figure 5); pure
// promotions skip the drain (Figure 6). The new state is only published
// after the reference count drains: that ordering is what lets a Pin
// (a held reference) forbid the runtime from degrading the chunk's
// permission while pinned accessors bypass the delay/refcnt atomics.
// New application threads are parked on the delay flag meanwhile.
// cont runs on this runtime goroutine.
func (a *Array) demoteLocal(rt *cluster.Runtime, d *dentry, newState uint32, cont func(rt *cluster.Runtime)) {
	if a.tryDemote(d, newState) {
		cont(rt)
		return
	}
	a.Metrics.RefDrainStalls.Add(1)
	rt.Stall(func(rt *cluster.Runtime) bool {
		if d.refcnt.Load() != 0 {
			return false
		}
		d.state.Store(newState)
		d.delay.Store(false)
		cont(rt)
		return true
	})
}

// tryDemote is demoteLocal's no-wait part: it publishes newState and
// reports true unless live references must drain first. In that case it
// leaves the delay flag raised and the caller goes through demoteLocal
// (which retries, then stalls).
func (a *Array) tryDemote(d *dentry, newState uint32) bool {
	old := d.state.Load()
	if old == newState {
		return true
	}
	op, np := statePerm(old), statePerm(newState)
	if op == permInvalid || (op == permRead && np == permRW) {
		d.state.Store(newState)
		return true
	}
	d.delay.Store(true) // block incoming application threads
	if d.refcnt.Load() != 0 {
		return false
	}
	d.state.Store(newState)
	d.delay.Store(false)
	return true
}

// demand sends coherence command kind to every node in mask and parks
// the one awaited-reply record the chunk's transaction has in flight;
// the last reply runs cont. With mask empty, cont runs at once.
func (a *Array) demand(rt *cluster.Runtime, d *dentry, kind uint8, mask uint64, cont func(rt *cluster.Runtime)) {
	n := bits.OnesCount64(mask)
	if n == 0 {
		cont(rt)
		return
	}
	d.await = awaited{kind: kind, left: n, since: d.tvt, cont: cont}
	for v := 0; mask != 0; v++ {
		if mask&1 != 0 {
			a.countSent(kind)
			a.send(&fMsg{to: v, kind: kind, chunk: d.ci, vt: d.tvt, tc: d.tctx})
		}
		mask >>= 1
	}
}

// awaits reports whether the transaction in flight on d waits for
// replies of kind.
func (d *dentry) awaits(kind uint8) bool {
	return d.await.left > 0 && cmdRows[d.await.kind].reply == kind
}

// replied counts one reply to d's demand. The last closes the round's
// fan-out span, if its command has one — a single span over the whole
// multicast wait, from the demand to the last reply's service — and runs
// the continuation.
func (a *Array) replied(rt *cluster.Runtime, d *dentry) {
	d.await.left--
	if d.await.left > 0 {
		return
	}
	if span := cmdRows[d.await.kind].fanout; span != "" {
		d.tctx = a.child(d.tctx, a.self(), trace.StageFanout, span, d.ci, d.await.since, d.tvt)
	}
	cont := d.await.cont
	d.await = awaited{}
	cont(rt)
}

func (a *Array) handleInvAck(rt *cluster.Runtime, d *dentry, svt int64) {
	d.tvt = maxi64(d.tvt, svt)
	if !d.awaits(msgInvAck) {
		a.rstate(rt).panicChunk(d.ci, "core: unexpected invalidation ack")
	}
	a.replied(rt, d)
}

// handleWBData copies a writeback into the home chunk. One the home
// awaits answers its recall or downgrade — a voluntary one that crossed
// the command on the wire included; any other ends the Dirty episode.
func (a *Array) handleWBData(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64, tc trace.Ctx) {
	end := svt + a.copyCost(len(m.Data))
	if d.awaits(msgWBData) {
		if tc.Valid() {
			// The writeback chain (descended from our recall/downgrade)
			// becomes the transaction chain for the rest of the grant.
			d.tctx = a.child(tc, a.self(), trace.StageService, "merge-wb", d.ci, svt, end)
		}
		copy(d.data, m.Data)
		d.tvt = maxi64(d.tvt, end)
		a.replied(rt, d)
		return
	}
	if d.busy {
		a.rstate(rt).panicChunk(d.ci, "core: voluntary writeback during unrelated transaction")
	}
	if d.dstate != dirDirty || int(d.owner) != m.From {
		a.rstate(rt).panicChunk(d.ci, "core: writeback from non-owner")
	}
	copy(d.data, m.Data)
	a.unshare(d, TransDirtyToUnshared)
	d.tvt = maxi64(d.tvt, end)
	a.drainDeferred(rt, d, d.ci)
}

// handleOpFlush merges a node's combined operand buffer into the home
// chunk. Identity elements are skipped; merging uses CAS because home
// application threads may be combining concurrently (voluntary flushes
// arrive while the chunk is still Operated). A flush, voluntary or not,
// answers a collapse in flight.
func (a *Array) handleOpFlush(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64) {
	op := a.op(OpID(m.OpID))
	merged := a.mergeOperands(d, m.Data, op)
	a.Metrics.OpMerges.Add(1)
	if m.Flag {
		a.Metrics.OpMergesVoluntary.Add(1)
	} else {
		a.Metrics.OpMergesRecalled.Add(1)
		a.noteFlush(d, merged)
	}
	d.opNodes &^= 1 << uint(m.From)
	d.tvt = maxi64(d.tvt, svt+a.copyCost(len(m.Data)))
	if d.awaits(msgOpFlush) {
		a.replied(rt, d)
	}
}

// mergeOperands folds buf into the home chunk and returns how many
// non-identity operands it merged.
func (a *Array) mergeOperands(d *dentry, buf []uint64, op *Op) int {
	id := op.Identity
	fn := op.Fn
	merged := 0
	for i, v := range buf {
		if v == id {
			continue
		}
		merged++
		addr := &d.data[i]
		for {
			old := atomic.LoadUint64(addr)
			if atomic.CompareAndSwapUint64(addr, old, fn(old, v)) {
				break
			}
		}
	}
	return merged
}
