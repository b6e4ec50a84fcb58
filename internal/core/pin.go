package core

import (
	"fmt"
	"sync/atomic"

	"darray/internal/cluster"
	"darray/internal/trace"
)

// Pin is an explicitly held reference to one chunk (paper §4.1 "Pin
// interface"): while held, the runtime can neither evict the chunk nor
// degrade its permission, so the pinned accessors skip the delay-flag
// and refcnt atomics entirely — the fast path costs the same as a
// builtin array access plus a bounds check.
type Pin struct {
	a     *Array
	d     *dentry
	base  int64 // first global element covered
	limit int64 // one past the last global element covered
	apFn  func(acc, operand uint64) uint64
	op    OpID
}

// PinRead pins the chunk containing element i with read permission.
// While pinned in Shared state the runtime may still serve other nodes'
// read requests from it. Like all pin variants it returns nil when the
// cluster has hit a fatal fabric error (see ctx.Err).
func (a *Array) PinRead(ctx *cluster.Ctx, i int64) *Pin {
	return a.pin(ctx, i, wantPinRead, 0, trace.Ctx{})
}

// PinWrite pins the chunk containing element i with exclusive (RW)
// permission.
func (a *Array) PinWrite(ctx *cluster.Ctx, i int64) *Pin {
	return a.pin(ctx, i, wantPinWrite, 0, trace.Ctx{})
}

// PinOperate pins the chunk containing element i in the Operated state
// for operator op, so Apply calls combine without atomics on the control
// path (the element CAS remains — combiners stay concurrent).
func (a *Array) PinOperate(ctx *cluster.Ctx, i int64, op OpID) *Pin {
	return a.pin(ctx, i, wantPinOperate, op, trace.Ctx{})
}

// pin acquires a pinned reference for the public Pin* calls, which hand
// out a pointer; the range paths acquire into their own storage.
func (a *Array) pin(ctx *cluster.Ctx, i int64, want uint8, op OpID, tc trace.Ctx) *Pin {
	p := new(Pin)
	if !a.acquire(ctx, p, i, want, op, tc) {
		return nil
	}
	return p
}

// mkPin builds the Pin handle for chunk ci once a reference is held.
func (a *Array) mkPin(d *dentry, ci int64, fn func(acc, operand uint64) uint64, op OpID) Pin {
	base := ci * a.sh.chunkWords
	limit := base + a.sh.chunkWords
	if limit > a.sh.n {
		limit = a.sh.n
	}
	return Pin{a: a, d: d, base: base, limit: limit, apFn: fn, op: op}
}

// pinHit accounts a pin acquisition the lock-free fast path served: it
// and its Unpin run exactly a Get hit's control path (dentry.enter, the
// state load, the refcnt release), so it is charged and counted as one —
// at one acquisition per 512-word chunk that was invisible, at two per
// KVS op it is most of the bill. tc, when valid, is the enclosing range
// op: the charge gets a span of its own, or the op's critical path would
// start with a hole.
func (a *Array) pinHit(ctx *cluster.Ctx, d *dentry, tc trace.Ctx) {
	if m := a.model; m != nil {
		if tc.Trace != 0 {
			now := ctx.Clock.Now()
			a.child(tc, a.self(), trace.StageService, "pin-hit", d.ci, now, now+m.GetHit)
		}
		ctx.Clock.Advance(m.GetHit)
	}
	if a.telOn() {
		a.Metrics.Hits.Add(1)
		a.Metrics.PinFast.Add(1)
		a.notePrefetchHit(d)
	}
}

// acquire takes a pinned reference on the chunk holding element i into
// caller storage p, so a range inside one chunk allocates nothing. It
// reports false when the cluster has failed (see ctx.Err). tc, when
// valid, is the causal-trace chain of the enclosing bulk range op
// (standalone Pin* calls are not root-sampled; ranges thread their root
// context through here).
func (a *Array) acquire(ctx *cluster.Ctx, p *Pin, i int64, want uint8, op OpID, tc trace.Ctx) bool {
	ci, _ := a.locate(i)
	d := &a.dents[ci]
	var fn func(uint64, uint64) uint64
	if want == wantPinOperate {
		fn = a.op(op).Fn
	}
	if want == wantPinRead && a.seqTrig >= 0 {
		a.noteSeq(ctx, ci)
	}
	for {
		if !d.enter() {
			a.awaitDelay(d)
			continue
		}
		if satisfies(d.state.Load(), want, op) {
			a.pinHit(ctx, d, tc)
			*p = a.mkPin(d, ci, fn, op) // keep the reference: that is the pin
			return true
		}
		d.refcnt.Add(-1)
		resp, ok := a.slowPath(ctx, d, want, op, tc)
		if !ok {
			return false
		}
		if resp.Val == 1 {
			// The runtime took the reference on our behalf.
			if a.telOn() {
				a.Metrics.PinSlow.Add(1)
			}
			*p = a.mkPin(d, ci, fn, op)
			return true
		}
	}
}

// First returns the first global index covered by the pin.
func (p *Pin) First() int64 { return p.base }

// Limit returns one past the last global index covered by the pin.
func (p *Pin) Limit() int64 { return p.limit }

// Get reads global element i from the pinned chunk. The load is atomic
// (a plain MOV on amd64) because combiners — pin.Apply on this node or
// a shipped op at the home — CAS words concurrently with pinned reads;
// the pin removes the delay-flag/refcnt traffic, not the word access.
func (p *Pin) Get(ctx *cluster.Ctx, i int64) uint64 {
	p.check(i)
	if m := p.a.model; m != nil {
		ctx.Clock.Advance(m.PinAccess)
	}
	return atomic.LoadUint64(&p.d.data[i-p.base])
}

// Set writes global element i. The pin must hold RW permission.
func (p *Pin) Set(ctx *cluster.Ctx, i int64, v uint64) {
	p.check(i)
	if statePerm(p.d.state.Load()) != permRW {
		panic("core: Set through a pin without write permission")
	}
	if m := p.a.model; m != nil {
		ctx.Clock.Advance(m.PinAccess)
	}
	p.d.data[i-p.base] = v
}

// Apply combines operand into element i through the pin. Requires a
// PinOperate. The pin skips the control path but not the element CAS, so
// it is charged PinAccess plus the CAS premium an Apply hit pays over a
// Get hit (ApplyHit - GetHit). A bulk Operate folds an element's adjacent
// operands before its one Apply; each folded operand is a pinned access
// without the CAS, PinAccess alone.
func (p *Pin) Apply(ctx *cluster.Ctx, i int64, operand uint64) {
	p.check(i)
	if p.apFn == nil {
		panic("core: Apply through a pin that was not PinOperate")
	}
	if m := p.a.model; m != nil {
		ctx.Clock.Advance(m.PinAccess + m.ApplyHit - m.GetHit)
	}
	addr := &p.d.data[i-p.base]
	for {
		old := atomic.LoadUint64(addr)
		if atomic.CompareAndSwapUint64(addr, old, p.apFn(old, operand)) {
			return
		}
	}
}

// Unpin releases the pinned reference; the Pin must not be used after.
func (p *Pin) Unpin(ctx *cluster.Ctx) {
	p.d.refcnt.Add(-1)
	p.d = nil
}

func (p *Pin) check(i int64) {
	if i < p.base || i >= p.limit {
		panic(fmt.Sprintf("core: index %d outside pinned chunk [%d,%d)", i, p.base, p.limit))
	}
}
