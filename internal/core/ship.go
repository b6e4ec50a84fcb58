package core

import (
	"math/bits"
	"sync/atomic"

	"darray/internal/buf"
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
// hysteresis. Caches learn the home's decision from the mode hint
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

	shipped bool // current mode: true = shipped, false = cached
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
	e.reqMask, e.events, e.churn = 0, 0, 0
	if !e.shipped {
		if e.nodesX16 >= shipUpNodes && e.churnX16 >= shipUpChurn && e.spanX16 <= shipHotSpan {
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

// homeShip serves a wantShip directory transaction. The shipped op
// mutates the authoritative words, so any state granting other nodes a
// copy or exclusivity is folded back to Unshared first — with the one
// crucial exception: Operated under the same operator combines directly
// (commutative with every outstanding combine buffer), which is what
// makes a shipped op cheap exactly when the chunk is hottest.
func (a *Array) homeShip(rt *cluster.Runtime, d *dentry, r homeReq) {
	a.noteShip(d, r.from, 0)
	switch d.dstate {
	case dirUnshared:
		a.shipApply(rt, d, r)
	case dirOperated:
		if r.op == d.opID {
			// Home holds Operated(op): the shipped operand combines into
			// the backing exactly like a home-thread combine; no
			// transition, no churn.
			a.shipApply(rt, d, r)
			return
		}
		a.collapseOperated(rt, d, func(rt *cluster.Runtime) {
			a.homeStep(rt, d, r)
		})
	case dirShared:
		// Every Shared copy goes stale, including the requester's.
		a.invalidateSharers(rt, d, -1, func(rt *cluster.Runtime) {
			a.transition(TransSharedToUnshared)
			d.dstate = dirUnshared
			d.state.Store(permRW) // promotion Read→RW needs no drain
			a.shipApply(rt, d, r)
		})
	case dirDirty:
		a.recallDirty(rt, d, func(rt *cluster.Runtime) {
			a.transition(TransDirtyToUnshared)
			d.dstate = dirUnshared
			d.owner = -1
			d.state.Store(permRW)
			a.shipApply(rt, d, r)
		})
	default:
		panic("core: bad directory state")
	}
}

// shipApply applies a shipped op (single operand or batch) against the
// home backing and replies. Merging uses CAS like mergeOperands: home
// application threads may be writing or combining concurrently.
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
// (the determinism chaos fingerprints rely on). Returns false when the
// cluster failed.
func (a *Array) shipOne(ctx *cluster.Ctx, d *dentry, ci, off int64, op OpID, operand uint64, tc trace.Ctx) bool {
	if ctx.Err() != nil {
		return false
	}
	ctx.Stats.Misses++
	if a.telOn() {
		a.Metrics.Misses.Add(1)
	}
	vt := ctx.Clock.Now()
	if m := a.model; m != nil {
		vt += m.SlowFixed
	}
	if tc.Trace != 0 {
		tc = a.trc.Child(tc, int32(a.self()), trace.StageShip, "ship-submit", ci, ctx.Clock.Now(), vt)
	}
	w := a.getWaiter()
	w.ctx, w.want, w.op, w.vt, w.tc, w.linked = ctx, wantShip, op, vt, tc, true
	a.rtOf(ci).Submit(func(rt *cluster.Runtime) {
		a.shipRequest(rt, d, w, off, operand, nil, nil)
	})
	resp := ctx.WaitResp()
	if resp.Err != nil {
		return false
	}
	ctx.Clock.AdvanceTo(resp.VT)
	return true
}

// shipRequest runs on the chunk's runtime goroutine: it queues the
// waiter on the chunk's ship FIFO and sends the msgShipOp. Per-pair
// fabric FIFO plus per-chunk runtime placement guarantee replies return
// in issue order, so handleShipReply matches the queue head.
func (a *Array) shipRequest(rt *cluster.Runtime, d *dentry, w *waiter, off int64, val uint64, data []uint64, pay *buf.Ref) {
	start, svt := a.charge2(rt, w.vt)
	if w.tc.Valid() && a.traceOn() {
		tc := a.child(w.tc, a.self(), trace.StageQueue, "rt-queue", d.ci, w.vt, start)
		w.tc = a.child(tc, a.self(), trace.StageService, "ship-req", d.ci, start, svt)
	}
	a.trace("ship-req", d.ci, -1, w.vt, w.tc)
	w.vt = svt
	d.shipQ = append(d.shipQ, w)
	a.send(&fMsg{to: a.homeOfChunk(d.ci), kind: msgShipOp, chunk: d.ci, op: w.op,
		idx: off, val: val, flag: data != nil, data: data, pay: pay, vt: svt, tc: w.tc})
}

// handleShipReply completes the oldest in-flight shipped op on this
// chunk and refreshes the cache's mode hint.
func (a *Array) handleShipReply(rt *cluster.Runtime, d *dentry, m *fabric.Message, svt int64, tc trace.Ctx) {
	if a.shipMode == shipAuto {
		d.ship.Store(m.Val != 0)
	}
	if len(d.shipQ) == 0 {
		panic("core: ship reply with no outstanding shipped op")
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
// Batched shipping for ApplyRange.

// shipActiveRange reports whether any chunk in [ciLo, ciHi] would take
// the shipped path right now. When none would, ApplyRange stays on the
// cached path untouched.
func (a *Array) shipActiveRange(ciLo, ciHi int64, op OpID) bool {
	if a.shipMode == shipOff {
		return false
	}
	for ci := ciLo; ci <= ciHi; ci++ {
		if a.shipWanted(&a.dents[ci], ci, op) {
			return true
		}
	}
	return false
}

// applyRangeShipped is ApplyRange's shipping-aware path: chunks whose
// mode is shipped get one batched msgShipOp each (operands ride the
// message, up to pipeline-depth batches in flight via tokens); the rest
// take the ordinary pin path.
func (a *Array) applyRangeShipped(ctx *cluster.Ctx, op OpID, i int64, src []uint64, tc trace.Ctx) {
	cw := a.sh.chunkWords
	end := i + int64(len(src))
	depth := a.pipeline
	if depth < 1 {
		depth = 1
	}
	toks := make([]*cluster.Token, 0, depth)
	// drain waits out the oldest in-flight batches until at most keep
	// remain; returns false once the cluster has failed.
	drain := func(keep int) bool {
		for len(toks) > keep {
			tok := toks[0]
			copy(toks, toks[1:])
			toks = toks[:len(toks)-1]
			resp := tok.Wait()
			if resp.Err != nil {
				// A failed wait may leave a late completion in the token's
				// channel; do not recycle it.
				ctx.Fail(resp.Err)
				return false
			}
			ctx.Clock.AdvanceTo(resp.VT)
			ctx.RecycleToken(tok)
		}
		return true
	}
	for ci := i / cw; ci*cw < end; ci++ {
		lo, hi := maxi64(i, ci*cw), mini64(end, (ci+1)*cw)
		d := &a.dents[ci]
		if !a.shipWanted(d, ci, op) {
			p := a.pin(ctx, lo, wantPinOperate, op, tc)
			if p == nil {
				return // cluster failed; see ctx.Err
			}
			for k := lo; k < hi; k++ {
				p.Apply(ctx, k, src[k-i])
			}
			p.Unpin(ctx)
			continue
		}
		if ctx.Err() != nil {
			return
		}
		ctx.Stats.Ops++
		ctx.Stats.Misses++
		if a.telOn() {
			a.Metrics.Misses.Add(1)
		}
		data, pay := a.leasePayload(int(hi - lo))
		copy(data, src[lo-i:hi-i])
		vt := ctx.Clock.Now()
		if m := a.model; m != nil {
			vt += m.SlowFixed + m.CopyCost(int(8*(hi-lo)))
		}
		btc := tc
		if tc.Trace != 0 {
			btc = a.trc.Child(tc, int32(a.self()), trace.StageShip, "ship-batch", ci, ctx.Clock.Now(), vt)
		}
		tok := ctx.AcquireToken()
		w := a.getWaiter()
		w.ctx, w.tok, w.want, w.op, w.vt, w.tc, w.linked = ctx, tok, wantShip, op, vt, btc, true
		off := lo - ci*cw
		a.rtOf(ci).Submit(func(rt *cluster.Runtime) {
			a.shipRequest(rt, d, w, off, 0, data, pay)
		})
		toks = append(toks, tok)
		if !drain(depth - 1) {
			return
		}
	}
	drain(0)
}
