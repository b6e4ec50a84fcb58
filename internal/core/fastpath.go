package core

import (
	"sync/atomic"

	"darray/internal/cluster"
	"darray/internal/trace"
)

// Get reads element i (paper Figure 4). The fast path costs two atomic
// reads of the delay flag (before and after the announce, see
// dentry.enter), two atomic refcnt updates, and a few branches;
// when the chunk is not readable locally the request goes to the runtime
// via the local-request queue and the thread blocks until it is filled.
func (a *Array) Get(ctx *cluster.Ctx, i int64) uint64 {
	ci, off := a.locate(i)
	d := &a.dents[ci]
	if m := a.model; m != nil {
		ctx.Clock.Advance(m.GetHit)
	}
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
	}
	if off == a.seqTrig {
		// Mid-chunk sample point for the sequential-access detector: one
		// int compare per Get when the detector is off (seqTrig == -1).
		a.noteSeq(ctx, ci)
	}
	for {
		if !d.enter() { // hold a reference
			a.awaitDelay(d)
			continue
		}
		st := d.state.Load()
		if p := statePerm(st); p == permRead || p == permRW {
			// Atomic load (a plain MOV on amd64): combining — a local
			// Apply hit or a shipped op at the home — CASes this word
			// concurrently with readers.
			v := atomic.LoadUint64(&d.data[off])
			d.refcnt.Add(-1) // release the reference
			if a.telOn() {
				a.Metrics.Hits.Add(1)
				a.notePrefetchHit(d)
			}
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Get", ci, t0)
			}
			return v
		}
		d.refcnt.Add(-1)
		if _, ok := a.slowPath(ctx, d, wantRead, 0, tc); !ok {
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Get", ci, t0)
			}
			return 0 // cluster failed; see ctx.Err
		}
	}
}

// Set writes element i. It requires exclusive (RW) permission; like a
// native array, concurrent unsynchronized Set/Get of the same element by
// different application threads is the application's race to manage.
func (a *Array) Set(ctx *cluster.Ctx, i int64, v uint64) {
	ci, off := a.locate(i)
	d := &a.dents[ci]
	if m := a.model; m != nil {
		ctx.Clock.Advance(m.SetHit)
	}
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
	}
	for {
		if !d.enter() {
			a.awaitDelay(d)
			continue
		}
		st := d.state.Load()
		if statePerm(st) == permRW {
			d.data[off] = v
			d.refcnt.Add(-1)
			if a.telOn() {
				a.Metrics.Hits.Add(1)
			}
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Set", ci, t0)
			}
			return
		}
		d.refcnt.Add(-1)
		if _, ok := a.slowPath(ctx, d, wantWrite, 0, tc); !ok {
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Set", ci, t0)
			}
			return // cluster failed; see ctx.Err
		}
	}
}

// Apply performs val[i] = op(val[i], operand) with Operate semantics
// (paper §4.3): on a chunk in the Operated state the operand is combined
// into the node's local combine buffer with a CAS loop, so any number of
// threads on any number of nodes proceed concurrently; the home node
// merges combined buffers when the chunk is read, written, or evicted.
// A home-node thread holding Unshared (RW) permission applies directly.
func (a *Array) Apply(ctx *cluster.Ctx, op OpID, i int64, operand uint64) {
	ci, off := a.locate(i)
	d := &a.dents[ci]
	fn := a.op(op).Fn
	if m := a.model; m != nil {
		ctx.Clock.Advance(m.ApplyHit)
	}
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
	}
	for {
		if !d.enter() {
			a.awaitDelay(d)
			continue
		}
		st := d.state.Load()
		if p := statePerm(st); p == permRW || (p == permOperated && stateOp(st) == op) {
			addr := &d.data[off]
			for {
				old := atomic.LoadUint64(addr)
				if atomic.CompareAndSwapUint64(addr, old, fn(old, operand)) {
					break
				}
			}
			d.refcnt.Add(-1)
			if a.telOn() {
				a.Metrics.Hits.Add(1)
				a.Metrics.Combines.Add(1)
			}
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Apply", ci, t0)
			}
			return
		}
		d.refcnt.Add(-1)
		if a.shipWanted(d, ci, op) {
			// Active path: ship the op to the home instead of acquiring
			// Operated permission. The op is complete when the reply lands.
			a.shipOne(ctx, d, off, op, operand, tc)
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Apply", ci, t0)
			}
			return
		}
		if _, ok := a.slowPath(ctx, d, wantOperate, op, tc); !ok {
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Apply", ci, t0)
			}
			return // cluster failed; see ctx.Err
		}
	}
}

// slowPath asks the runtime owning chunk d for want and blocks until it
// reports a state change; the caller then retries its fast path (a pin
// request may instead be granted outright: resp.Val == 1). It reports
// false when the cluster failed: the caller must abandon the operation
// and return a zero value instead of retrying — the error is on ctx.
func (a *Array) slowPath(ctx *cluster.Ctx, d *dentry, want uint8, op OpID, tc trace.Ctx) (cluster.Resp, bool) {
	w := a.getWaiter()
	w.want, w.op, w.tc = want, op, tc
	return a.await(ctx, a.request(ctx, d, w, 0))
}

// request hands slow-path waiter w for chunk d — want, op, tc and the
// operands its kind needs filled in by the caller — to the runtime owning
// the chunk, and returns the token its completion arrives on, or nil when
// ctx has already failed. The request leaves the thread SlowFixed (plus
// extra, a shipped batch's operand copy) after now. Every request but a
// lock-table one counts as a miss, and every one counts as demand until
// await.
func (a *Array) request(ctx *cluster.Ctx, d *dentry, w *waiter, extra int64) *cluster.Token {
	if ctx.Err() != nil {
		w.pay.Release() // a shipped batch that never went out
		a.putWaiter(w)
		return nil
	}
	if w.want < wantRLock {
		ctx.Stats.Misses++
		if a.telOn() {
			a.Metrics.Misses.Add(1)
		}
	}
	now := ctx.Clock.Now()
	w.vt = now
	if m := a.model; m != nil {
		w.vt += m.SlowFixed + extra
	}
	if w.tc.Trace != 0 {
		stage, name := trace.StageService, "submit"
		if w.want == wantShip {
			stage, name = trace.StageShip, "ship-submit"
			if w.pay != nil {
				name = "ship-batch"
			}
		}
		w.tc = a.trc.Child(w.tc, int32(a.self()), stage, name, d.ci, now, w.vt)
	}
	tok := ctx.AcquireToken()
	w.ctx, w.tok = ctx, tok
	ctx.DemandStart()
	a.submitLocal(d, w)
	return tok
}

// await blocks until the request tok was issued for completes, and moves
// the thread's clock to its completion. It reports false when there was
// no request (tok nil: ctx had failed) or the cluster failed under it;
// the error is then on ctx, and the token is not recycled — a late
// completion may still land in it.
func (a *Array) await(ctx *cluster.Ctx, tok *cluster.Token) (cluster.Resp, bool) {
	if tok == nil {
		return cluster.Resp{}, false
	}
	resp := tok.Wait()
	ctx.DemandEnd()
	if resp.Err != nil {
		ctx.Fail(resp.Err)
		return resp, false
	}
	ctx.Clock.AdvanceTo(resp.VT)
	ctx.RecycleToken(tok)
	return resp, true
}
