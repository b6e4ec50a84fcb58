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
	ctx.Stats.Ops++
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
			ctx.Stats.Hits++
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
		if !a.slowPath(ctx, d, ci, wantRead, 0, tc) {
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
	ctx.Stats.Ops++
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
			ctx.Stats.Hits++
			if a.telOn() {
				a.Metrics.Hits.Add(1)
			}
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Set", ci, t0)
			}
			return
		}
		d.refcnt.Add(-1)
		if !a.slowPath(ctx, d, ci, wantWrite, 0, tc) {
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
	ctx.Stats.Ops++
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
			ctx.Stats.Hits++
			ctx.Stats.Combines++
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
			a.shipOne(ctx, d, ci, off, op, operand, tc)
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Apply", ci, t0)
			}
			return
		}
		if !a.slowPath(ctx, d, ci, wantOperate, op, tc) {
			if tc.Trace != 0 {
				a.endRoot(ctx, tc, "Apply", ci, t0)
			}
			return // cluster failed; see ctx.Err
		}
	}
}

// slowPath submits a request to the runtime owning chunk ci and blocks
// until the runtime reports a state change, then the caller retries its
// fast path. The response carries the virtual completion time.
//
// Returns false when the request completed with an error (the fabric
// gave up on a peer): the caller must abandon the operation and return a
// zero value instead of retrying — the error is recorded on ctx.
func (a *Array) slowPath(ctx *cluster.Ctx, d *dentry, ci int64, want uint8, op OpID, tc trace.Ctx) bool {
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
		tc = a.trc.Child(tc, int32(a.self()), trace.StageService, "submit", ci, ctx.Clock.Now(), vt)
	}
	w := a.getWaiter()
	w.ctx, w.want, w.op, w.vt, w.tc = ctx, want, op, vt, tc
	ctx.DemandStart()
	a.submitLocal(d, w)
	resp := ctx.WaitResp()
	ctx.DemandEnd()
	if resp.Err != nil {
		return false
	}
	ctx.Clock.AdvanceTo(resp.VT)
	return true
}
