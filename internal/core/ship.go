package core

import (
	"math/bits"
	"sync/atomic"

	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/trace"
)

// Function shipping: the active-message Operate path (paper §4.3-4.4
// plus the RDMA-vs-RPC crossover of PAPERS.md). Instead of acquiring
// Operated permission and combining locally, a cache ships the op —
// operator id plus operand(s) — to the chunk's home, which applies it
// against the authoritative backing under the existing directory
// serialization: no ownership transfer, no combine-buffer flush at the
// next collapse, no chunk-sized payloads. Cached combining amortizes
// one grant over many local combines and wins when few nodes touch a
// chunk; shipping pays one header-sized round trip per op and wins when
// many nodes interleave reads and updates on a hot chunk, because every
// read/update cycle then costs the cached path a full Operated
// collapse (op-recall fan-out + per-combiner flushes + re-grants).
//
// Mode selection is per chunk. The home-side estimator watches the
// operate-family signals serveHome already sees (distinct requesters,
// Operated add-node/collapse churn, and the virtual-time rate at which
// they arrive) and flips the chunk between cached and shipped with
// hysteresis. A collapse whose recalled flushes carry many operands is
// the cached path amortizing, not thrashing, so it vetoes the flip to
// shipped for its window (shipAmortized). Caches learn the home's decision from the mode hint
// piggybacked on every msgShipReply and msgOpGrant; a stale hint is
// only ever suboptimal, never incorrect, because the home applies
// shipped ops in every directory state.

// Shipping modes (Array.shipMode, resolved at construction from
// cluster.Config.Ship and core.Options).
const (
	shipOff  uint8 = iota // cached combining only: reproduces pre-shipping behaviour bit-for-bit
	shipAuto              // per-chunk estimator decides (requires a vtime model)
	shipOn                // every remote Apply ships
)

// shipModeOf parses a Config.Ship value.
func shipModeOf(s string) uint8 {
	switch s {
	case "", "auto":
		return shipAuto
	case "on":
		return shipOn
	case "off":
		return shipOff
	}
	panic("core: ship mode must be auto, on, or off: " + s)
}

// Estimator tuning. All EWMAs are fixed-point (×16) and advance once
// per completed window of shipWindow operate-family events; the flip
// thresholds are deliberately asymmetric (hysteresis) so a chunk
// hovering at the boundary does not flap.
const (
	// shipWindow is the number of operate-family events per estimator
	// window.
	shipWindow = 16
	// shipAlpha is the EWMA smoothing shift: new = old + (sample-old)>>shipAlpha.
	shipAlpha = 1

	// Flip to shipped when, per window (EWMA): at least ~2.5 distinct
	// requester nodes, at least ~2 add-node/collapse churn events, and
	// the window's events arrived within shipHotSpan of virtual time (a
	// cold chunk can see every node eventually; only a hot one sees them
	// fast). 400 µs per 16 events sits between the ~200 µs a genuinely
	// hot chunk shows even while the cached path is thrashing and the
	// multi-millisecond windows of uniformly spread traffic.
	shipUpNodes = 2*16 + 8
	shipUpChurn = 2 * 16
	shipHotSpan = 400_000 * 16 // 400 µs per 16-event window, ×16
	// Flip back to cached when the requester diversity collapses or the
	// chunk has cooled well past the hot threshold.
	shipDownNodes = 1*16 + 8
	shipColdSpan  = 1_600_000 * 16

	// shipAmortized is the operand count at which a recalled flush shows
	// the cached path paying off. A combiner's cached cycle costs it
	// about two round trips (the Operated grant, then the recall and its
	// flush) however many operands it combined; shipping the same operands
	// costs one round trip each. So a flush of two or more already beats
	// shipping, and eight leaves a 4x margin. Hot RMW chunks flush 0-1
	// operands per recall (each node re-reads between updates); a
	// bulk-synchronous scatter (PageRank, CC) flushes dozens, and its
	// collapse churn is the barrier's, not contention.
	shipAmortized = 8
)

// shipEstimator is the per-chunk contention estimator, owned by the
// home chunk's runtime goroutine (no atomics needed). It decides
// between the two execution modes of a chunk's Operate traffic.
type shipEstimator struct {
	reqMask uint64 // distinct requesters seen this window
	events  int32  // operate-family events this window
	churn   int32  // add-node + collapse events this window
	winVT   int64  // virtual time the window opened

	nodesX16 int32 // EWMA: distinct requesters per window, ×16
	churnX16 int32 // EWMA: churn events per window, ×16
	spanX16  int64 // EWMA: window duration in virtual ns, ×16

	amortized bool // this window merged a recalled flush of >= shipAmortized operands
	shipped   bool // current mode: true = shipped, false = cached
}

// note feeds one operate-family event (a remote Operate request or a
// shipped op) from node `from`, with `churn` add-node/collapse events
// attributed to it, at virtual time nowVT. Returns true when the event
// completed a window whose EWMAs crossed a flip threshold.
func (e *shipEstimator) note(from int, churn int32, nowVT int64) bool {
	if e.events == 0 {
		e.winVT = nowVT
	}
	e.reqMask |= 1 << uint(from&63)
	e.churn += churn
	e.events++
	if e.events < shipWindow {
		return false
	}
	nodes := int32(bits.OnesCount64(e.reqMask)) << 4
	ch := e.churn << 4
	span := (nowVT - e.winVT) << 4
	if span < 0 {
		span = 0
	}
	e.nodesX16 += (nodes - e.nodesX16) >> shipAlpha
	e.churnX16 += (ch - e.churnX16) >> shipAlpha
	e.spanX16 += (span - e.spanX16) >> shipAlpha
	amortized := e.amortized
	e.reqMask, e.events, e.churn, e.amortized = 0, 0, 0, false
	if !e.shipped {
		if !amortized && e.nodesX16 >= shipUpNodes && e.churnX16 >= shipUpChurn && e.spanX16 <= shipHotSpan {
			e.shipped = true
			return true
		}
		return false
	}
	if e.nodesX16 <= shipDownNodes || e.spanX16 >= shipColdSpan {
		e.shipped = false
		return true
	}
	return false
}

// bump records one churn event (an Operated collapse) outside a request
// arrival; it is folded into the current window.
func (e *shipEstimator) bump() { e.churn++ }

// flushed records a recalled flush that merged n non-identity operands:
// one of at least shipAmortized keeps the current window from flipping
// the chunk to shipped.
func (e *shipEstimator) flushed(n int) {
	if n >= shipAmortized {
		e.amortized = true
	}
}

// noteShip feeds the home-side estimator from a directory event. Only
// auto mode estimates, and only with a vtime model attached — the rate
// signal is meaningless at virtual time zero.
func (a *Array) noteShip(d *dentry, from int, churn int32) {
	if a.shipMode != shipAuto || a.model == nil {
		return
	}
	if d.obs.ship.note(from, churn, d.tvt) {
		a.Metrics.ShipFlips.Add(1)
	}
}

// bumpShip attributes an Operated collapse to the estimator's churn
// signal (same gating as noteShip).
func (a *Array) bumpShip(d *dentry) {
	if a.shipMode == shipAuto && a.model != nil {
		d.obs.ship.bump()
	}
}

// noteFlush feeds the estimator a recalled flush of n merged operands
// (same gating as noteShip).
func (a *Array) noteFlush(d *dentry, n int) {
	if a.shipMode == shipAuto && a.model != nil {
		d.obs.ship.flushed(n)
	}
}

// shipHint is the mode hint piggybacked on msgShipReply and msgOpGrant
// (1 = ship your next miss here). Off mode always sends 0, keeping the
// wire bytes identical to the pre-shipping protocol.
func (a *Array) shipHint(d *dentry) uint64 {
	if a.shipMode == shipAuto && d.obs.ship.shipped {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------------
// Home side: applying a shipped op.

// shipApply applies a shipped op (single operand or batch) against the
// home backing and replies. homeStep calls it on an Unshared chunk or one
// Operated under the op's own operator, where the operand commutes with
// every outstanding combine buffer — which is what makes a shipped op
// cheap exactly when the chunk is hottest — and reclaims any other state
// first. Merging uses CAS like mergeOperands: home application threads
// may be writing or combining concurrently.
func (a *Array) shipApply(rt *cluster.Runtime, d *dentry, r homeReq) {
	op := a.op(r.op)
	words := 1
	if r.data != nil {
		words = len(r.data)
		id, fn := op.Identity, op.Fn
		for i, v := range r.data {
			if v == id {
				continue
			}
			casApply(&d.data[r.idx+int64(i)], v, fn)
		}
		r.pay.Release() // nil-safe; batch operands owned since handleMsg
	} else {
		casApply(&d.data[r.idx], r.val, op.Fn)
	}
	cc := a.copyCost(words)
	d.tctx = a.child(d.tctx, a.self(), trace.StageShip, "ship-apply", d.ci, d.tvt, d.tvt+cc)
	d.tvt += cc
	a.Metrics.ShipOps.Add(1)
	// bytes_saved is a documented estimate: a cached-mode combine of the
	// same operands would eventually flush a full chunk home, a shipped
	// op moves only its operands.
	if saved := 8 * (a.sh.chunkWords - int64(words)); saved > 0 {
		a.Metrics.ShipBytesSaved.Add(saved)
	}
	a.send(&fMsg{to: r.from, kind: msgShipReply, chunk: d.ci,
		val: a.shipHint(d), vt: d.tvt, tc: d.tctx})
	a.homeDone(rt, d)
}

func casApply(addr *uint64, v uint64, fn func(acc, operand uint64) uint64) {
	for {
		old := atomic.LoadUint64(addr)
		if atomic.CompareAndSwapUint64(addr, old, fn(old, v)) {
			return
		}
	}
}

// ---------------------------------------------------------------------------
// Cache side: issuing shipped ops.

// shipWanted reports whether a missing Apply on chunk ci should ship.
// Local permission always wins (combining under a held grant is free),
// and a home node never ships to itself.
func (a *Array) shipWanted(d *dentry, ci int64, op OpID) bool {
	switch a.shipMode {
	case shipOn:
	case shipAuto:
		if !d.ship.Load() {
			return false
		}
	default:
		return false
	}
	if satisfies(d.state.Load(), wantOperate, op) {
		return false
	}
	return a.homeOfChunk(ci) != a.self()
}

// shipOne ships a single Apply and waits for the home's reply, so every
// op issued before a barrier is home-applied before the barrier exits
// (the determinism chaos fingerprints rely on).
func (a *Array) shipOne(ctx *cluster.Ctx, d *dentry, off int64, op OpID, operand uint64, tc trace.Ctx) {
	w := a.getWaiter()
	w.want, w.op, w.tc, w.idx, w.val = wantShip, op, tc, off, operand
	a.await(ctx, a.request(ctx, d, w, 0))
}

// shipRequest runs on the chunk's runtime goroutine: it queues the
// waiter on the chunk's ship FIFO and sends the msgShipOp carrying the
// waiter's operand, or its leased batch, at offset w.idx. Per-pair
// fabric FIFO plus per-chunk runtime placement guarantee replies return
// in issue order, so handleShipReply matches the queue head.
func (a *Array) shipRequest(rt *cluster.Runtime, d *dentry, w *waiter) {
	start, svt := a.charge2(rt, w.vt)
	if w.tc.Valid() && a.traceOn() {
		tc := a.child(w.tc, a.self(), trace.StageQueue, "rt-queue", d.ci, w.vt, start)
		w.tc = a.child(tc, a.self(), trace.StageService, "ship-req", d.ci, start, svt)
	}
	a.rstate(rt).record(evShipReq, d.ci, -1, w.vt, w.tc)
	w.vt, w.linked = svt, true
	pay := w.pay
	w.pay = nil // the message owns the batch now
	d.shipQ = append(d.shipQ, w)
	a.send(&fMsg{to: a.homeOfChunk(d.ci), kind: msgShipOp, chunk: d.ci, op: w.op,
		idx: w.idx, val: w.val, flag: pay != nil, data: pay.Words(), pay: pay, vt: svt, tc: w.tc})
}

// handleShipReply completes the oldest in-flight shipped op on this
// chunk and refreshes the cache's mode hint.
func (a *Array) handleShipReply(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64, tc trace.Ctx) {
	if a.shipMode == shipAuto {
		d.ship.Store(m.Val != 0)
	}
	if len(d.shipQ) == 0 {
		a.rstate(rt).panicChunk(d.ci, "core: ship reply with no outstanding shipped op")
	}
	w := d.shipQ[0]
	copy(d.shipQ, d.shipQ[1:])
	d.shipQ[len(d.shipQ)-1] = nil
	d.shipQ = d.shipQ[:len(d.shipQ)-1]
	if tc.Valid() {
		w.tc = tc // the reply chain decomposed the wait
	}
	a.respond(rt, d, w, maxi64(svt, w.vt))
}

// ---------------------------------------------------------------------------
// Batched shipping for ApplyRange and ApplyAt.

// issueShipInto starts shipping the run [k0, k1) of rs on chunk ci —
// operand src[k] for element rs.at(k) — as one batched msgShipOp without
// blocking, into the pipeline slot r. The batch spans the run's lowest to
// highest offset: every operand for one offset, adjacent or not, is
// folded from the identity through the operator, which its associativity
// and commutativity permit, and the home applies the folded word to its
// current value (so a float sum may round differently from per-element
// Apply; see PROTOCOL.md). An offset the run does not touch carries the
// identity, which shipApply skips. So a run costs one round trip however
// many operands it holds.
func (a *Array) issueShipInto(ctx *cluster.Ctx, r *chunkReq, ci int64, rs *runs, k0, k1 int64, op OpID, src []uint64, tc trace.Ctx) {
	lo, hi := rs.at(k0), rs.at(k0)
	for k := k0 + 1; k < k1; k++ {
		lo, hi = mini64(lo, rs.at(k)), maxi64(hi, rs.at(k))
	}
	o := a.op(op)
	data, pay := a.leasePayload(int(hi - lo + 1))
	for j := range data {
		data[j] = o.Identity
	}
	for k := k0; k < k1; k++ {
		j := rs.at(k) - lo
		data[j] = o.Fn(data[j], src[k])
	}
	w := a.getWaiter()
	w.want, w.op, w.tc, w.idx, w.pay = wantShip, op, tc, lo-ci*a.sh.chunkWords, pay
	*r = chunkReq{ci: ci, ship: true, tok: a.request(ctx, &a.dents[ci], w, a.copyCost(len(data)))}
}
