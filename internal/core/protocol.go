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
// A data-resp with grantsLock set in Val is a writer's lock grant that
// carries its chunk (see lock.go).
const (
	msgReadReq uint8 = iota
	msgWriteReq
	msgOperateReq
	msgDataResp // Val carries the granted permission (and grantsLock; Idx names the element)
	msgOpGrant
	msgInvalidate
	msgInvAck
	msgDowngrade // Dirty owner: write back, keep a Shared copy
	msgRecall    // Dirty owner: write back and invalidate
	msgOpRecall  // operating node: flush combined operands, invalidate
	msgWBData    // chunk data to home (recall response or voluntary evict)
	msgOpFlush   // combined operands to home
	msgLockReq   // Idx = element, Flag = writer, Val = piggybacked lease return and fill request (see lock.go)
	msgLockGrant // Val = 1 when the grant carries a reader lease
	msgUnlock
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
	case msgInvalidate:
		a.handleInvalidate(rt, d, m.From, svt, tc)
	case msgInvAck:
		a.handleInvAck(rt, d, svt)
	case msgDowngrade:
		a.handleDowngrade(rt, d, svt, tc)
	case msgRecall:
		a.handleRecall(rt, d, svt, tc)
	case msgOpRecall:
		a.handleOpRecall(rt, d, svt, tc)
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
// command (want is then one of the def* tags) behind an eviction.
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

	// lock (want == wantWrite, remote): the grant also carries the write
	// lock on element idx, which the lock table granted the requester
	// when its request arrived (lock.go).
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
	a.homeStep(rt, d, r)
}

// homeStep dispatches one directory transaction. Transitions that must
// wait (reference drains, invalidation acks, recalls) continue through
// callbacks and re-enter homeStep or finish via homeDone.
func (a *Array) homeStep(rt *cluster.Runtime, d *dentry, r homeReq) {
	if r.want == wantShip {
		a.homeShip(rt, d, r)
		return
	}
	local := r.from == a.self()
	switch d.dstate {
	case dirUnshared:
		a.homeFromUnshared(rt, d, r, local)
	case dirShared:
		a.homeFromShared(rt, d, r, local)
	case dirDirty:
		a.homeFromDirty(rt, d, r, local)
	case dirOperated:
		if !local && r.want == wantOperate && r.op == d.opID {
			if d.opNodes&(1<<uint(r.from)) == 0 {
				a.transition(TransOperatedAddNode)
				a.noteShip(d, r.from, 1)
			} else {
				a.noteShip(d, r.from, 0)
			}
			d.opNodes |= 1 << uint(r.from)
			a.grantOperate(rt, d, r)
			return
		}
		if local && satisfies(d.state.Load(), r.want, r.op) {
			// Home already holds Operated(op) permission locally.
			a.homeFinish(rt, d, r)
			return
		}
		a.collapseOperated(rt, d, func(rt *cluster.Runtime) {
			a.homeStep(rt, d, r)
		})
	default:
		a.rstate(rt).panicChunk(d.ci, "core: bad directory state")
	}
}

func (a *Array) homeFromUnshared(rt *cluster.Runtime, d *dentry, r homeReq, local bool) {
	if local {
		// Unshared already grants the home node R/W/O.
		a.homeFinish(rt, d, r)
		return
	}
	switch r.want {
	case wantRead:
		a.demoteLocal(rt, d, permRead, func(rt *cluster.Runtime) {
			a.transition(TransUnsharedToShared)
			d.dstate = dirShared
			d.sharers = 1 << uint(r.from)
			a.grantData(rt, d, r, permRead)
		})
	case wantWrite:
		a.homeToDirty(rt, d, r, TransUnsharedToDirty)
	case wantOperate:
		a.noteShip(d, r.from, 1)
		a.demoteLocal(rt, d, packState(permOperated, r.op), func(rt *cluster.Runtime) {
			a.transition(TransUnsharedToOperated)
			d.dstate = dirOperated
			d.opID = r.op
			d.opNodes = 1 << uint(r.from)
			a.grantOperate(rt, d, r)
		})
	}
}

func (a *Array) homeFromShared(rt *cluster.Runtime, d *dentry, r homeReq, local bool) {
	switch r.want {
	case wantRead:
		if local {
			a.homeFinish(rt, d, r) // home perm is Read already
			return
		}
		if d.sharers&(1<<uint(r.from)) == 0 {
			a.transition(TransSharedAddSharer)
		}
		d.sharers |= 1 << uint(r.from)
		a.grantData(rt, d, r, permRead)
	case wantWrite:
		if !local {
			if d.sharers&^(1<<uint(r.from)) == 0 {
				d.sharers = 0 // nothing to invalidate: no continuation to park
				a.homeToDirty(rt, d, r, TransSharedToDirty)
				return
			}
			a.invalidateSharers(rt, d, r.from, func(rt *cluster.Runtime) {
				a.homeToDirty(rt, d, r, TransSharedToDirty)
			})
			return
		}
		a.invalidateSharers(rt, d, -1, func(rt *cluster.Runtime) {
			// Permission promotion Read→RW needs no drain (Fig. 6).
			a.transition(TransSharedToUnshared)
			d.dstate = dirUnshared
			d.state.Store(permRW)
			a.homeFinish(rt, d, r)
		})
	case wantOperate:
		except := -1
		if !local {
			except = r.from
		}
		a.invalidateSharers(rt, d, except, func(rt *cluster.Runtime) {
			if local {
				a.transition(TransSharedToUnshared)
				d.dstate = dirUnshared
				d.state.Store(permRW) // RW satisfies Apply at home
				a.homeFinish(rt, d, r)
				return
			}
			a.noteShip(d, r.from, 1)
			a.demoteLocal(rt, d, packState(permOperated, r.op), func(rt *cluster.Runtime) {
				a.transition(TransSharedToOperated)
				d.dstate = dirOperated
				d.opID = r.op
				d.opNodes = 1 << uint(r.from)
				a.grantOperate(rt, d, r)
			})
		})
	}
}

// homeToDirty ends a remote write transaction once no other sharer is
// left: the home's own permission is revoked (draining its references)
// and the requester becomes the Dirty owner with the chunk. Only a drain
// that has to wait builds a continuation.
func (a *Array) homeToDirty(rt *cluster.Runtime, d *dentry, r homeReq, t Transition) {
	if a.tryDemote(d, permInvalid) {
		a.grantDirty(rt, d, r, t)
		return
	}
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) { a.grantDirty(rt, d, r, t) })
}

func (a *Array) grantDirty(rt *cluster.Runtime, d *dentry, r homeReq, t Transition) {
	a.transition(t)
	d.dstate = dirDirty
	d.owner = int32(r.from)
	a.grantData(rt, d, r, permRW)
}

func (a *Array) homeFromDirty(rt *cluster.Runtime, d *dentry, r homeReq, local bool) {
	owner := int(d.owner)
	if !local && owner == r.from {
		a.rstate(rt).panicChunk(d.ci, "core: dirty owner re-requested ownership")
	}
	if !local && r.want == wantRead {
		// Dirty --Remote R--> Shared: the owner keeps a Shared copy.
		a.demandWriteback(d, msgDowngrade, func(rt *cluster.Runtime) {
			a.transition(TransDirtyToShared)
			d.dstate = dirShared
			d.sharers = (1 << uint(owner)) | (1 << uint(r.from))
			d.state.Store(permRead)
			a.grantData(rt, d, r, permRead)
		})
		return
	}
	a.demandWriteback(d, msgRecall, func(rt *cluster.Runtime) {
		a.transition(TransDirtyToUnshared)
		d.dstate = dirUnshared
		d.owner = -1
		d.state.Store(permRW)
		a.homeStep(rt, d, r)
	})
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
// made on behalf of the lock table (r.lock) names the element whose write
// lock rides it.
func (a *Array) grantData(rt *cluster.Runtime, d *dentry, r homeReq, perm uint32) {
	if r.nodata {
		a.send(&fMsg{to: r.from, kind: msgDataResp, chunk: d.ci, val: uint64(perm),
			flag: true, vt: d.tvt, tc: d.tctx})
		a.homeDone(rt, d)
		return
	}
	val := uint64(perm)
	if r.lock {
		val |= grantsLock
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
		// Cache side: deferred coherence commands.
		switch r.want {
		case defInvalidate:
			a.handleInvalidate(rt, d, r.from, r.vt, r.tc)
		case defDowngrade:
			a.handleDowngrade(rt, d, r.vt, r.tc)
		case defRecall:
			a.handleRecall(rt, d, r.vt, r.tc)
		case defOpRecall:
			a.handleOpRecall(rt, d, r.vt, r.tc)
		}
	}
	// A cache-side dentry may have collected waiters during an eviction.
	if !d.busy && !d.pending && len(d.waiters) > 0 && a.homeOfChunk(ci) != a.self() {
		a.issueRequest(rt, d)
	}
}

// Cache-side deferred command tags (reuse homeReq.want).
const (
	defInvalidate uint8 = 100 + iota
	defDowngrade
	defRecall
	defOpRecall
)

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

// invalidateSharers sends invalidations to every sharer except `except`
// and continues once all acks arrive.
func (a *Array) invalidateSharers(rt *cluster.Runtime, d *dentry, except int, cont func(rt *cluster.Runtime)) {
	mask := d.sharers
	if except >= 0 {
		mask &^= 1 << uint(except)
	}
	d.sharers = 0
	n := bits.OnesCount64(mask)
	if n == 0 {
		cont(rt)
		return
	}
	d.acks = n
	d.onAcks = cont
	d.fanVT = d.tvt
	for v := 0; mask != 0; v++ {
		if mask&1 != 0 {
			a.send(&fMsg{to: v, kind: msgInvalidate, chunk: d.ci, vt: d.tvt, tc: d.tctx})
		}
		mask >>= 1
	}
}

func (a *Array) handleInvAck(rt *cluster.Runtime, d *dentry, svt int64) {
	d.tvt = maxi64(d.tvt, svt)
	if d.acks == 0 || d.onAcks == nil {
		a.rstate(rt).panicChunk(d.ci, "core: unexpected invalidation ack")
	}
	d.acks--
	if d.acks == 0 {
		// One fanout span covers the whole multicast wait: fan-out start
		// to the last ack's service completion.
		d.tctx = a.child(d.tctx, a.self(), trace.StageFanout, "inv-fanout", d.ci, d.fanVT, d.tvt)
		cb := d.onAcks
		d.onAcks = nil
		cb(rt)
	}
}

// demandWriteback asks the chunk's Dirty owner to write it back: kind is
// msgRecall (and invalidate) or msgDowngrade (and keep a Shared copy).
// The response (or a voluntary writeback that crossed on the wire) lands
// in handleWBData, which copies the data home before running cont.
func (a *Array) demandWriteback(d *dentry, kind uint8, cont func(rt *cluster.Runtime)) {
	if kind == msgRecall {
		a.Metrics.Recalls.Add(1)
	} else {
		a.Metrics.Downgrades.Add(1)
	}
	d.onWB = func(rt *cluster.Runtime, data []uint64, vt int64) {
		copy(d.data, data)
		d.tvt = maxi64(d.tvt, vt)
		cont(rt)
	}
	a.send(&fMsg{to: int(d.owner), kind: kind, chunk: d.ci, vt: d.tvt, tc: d.tctx})
}

func (a *Array) handleWBData(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64, tc trace.Ctx) {
	if d.onWB != nil {
		cb := d.onWB
		d.onWB = nil
		end := svt + a.copyCost(len(m.Data))
		if tc.Valid() {
			// The writeback chain (descended from our recall/downgrade)
			// becomes the transaction chain for the rest of the grant.
			d.tctx = a.child(tc, a.self(), trace.StageService, "merge-wb", d.ci, svt, end)
		}
		cb(rt, m.Data, end)
		return
	}
	if d.busy {
		a.rstate(rt).panicChunk(d.ci, "core: voluntary writeback during unrelated transaction")
	}
	if d.dstate != dirDirty || int(d.owner) != m.From {
		a.rstate(rt).panicChunk(d.ci, "core: writeback from non-owner")
	}
	copy(d.data, m.Data)
	a.transition(TransDirtyToUnshared)
	d.dstate = dirUnshared
	d.owner = -1
	d.state.Store(permRW)
	d.tvt = maxi64(d.tvt, svt+a.copyCost(len(m.Data)))
	a.drainDeferred(rt, d, d.ci)
}

// collapseOperated drains the Operated state: home permission is revoked
// first (stopping local combining), then every operating node is asked
// to flush its combined operands, which the home merges; the chunk lands
// in Unshared with home RW permission.
func (a *Array) collapseOperated(rt *cluster.Runtime, d *dentry, cont func(rt *cluster.Runtime)) {
	a.bumpShip(d) // collapse churn feeds the contention estimator
	a.demoteLocal(rt, d, permInvalid, func(rt *cluster.Runtime) {
		mask := d.opNodes
		n := bits.OnesCount64(mask)
		finish := func(rt *cluster.Runtime) {
			a.transition(TransOperatedToUnshared)
			d.dstate = dirUnshared
			d.opNodes = 0
			d.opID = 0
			d.state.Store(permRW)
			cont(rt)
		}
		if n == 0 {
			finish(rt)
			return
		}
		d.opAcks = n
		d.onOpAll = finish
		d.fanVT = d.tvt
		for v := 0; mask != 0; v++ {
			if mask&1 != 0 {
				a.send(&fMsg{to: v, kind: msgOpRecall, chunk: d.ci, vt: d.tvt, tc: d.tctx})
			}
			mask >>= 1
		}
	})
}

// handleOpFlush merges a node's combined operand buffer into the home
// chunk. Identity elements are skipped; merging uses CAS because home
// application threads may be combining concurrently (voluntary flushes
// arrive while the chunk is still Operated).
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
	if d.opAcks > 0 {
		d.opAcks--
		if d.opAcks == 0 {
			d.tctx = a.child(d.tctx, a.self(), trace.StageFanout, "op-collapse", d.ci, d.fanVT, d.tvt)
			cb := d.onOpAll
			d.onOpAll = nil
			cb(rt)
		}
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
