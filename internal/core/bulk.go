package core

import (
	"fmt"

	"darray/internal/cluster"
	"darray/internal/trace"
)

// Bulk transfers: chunk-wise ranged reads and writes. Internally each
// covered chunk is pinned once, so a bulk operation costs one reference
// acquisition per chunk instead of per element — the natural companion
// to the Pin interface for dense transfers (and the access pattern GAM
// was designed around, cf. §2).
//
// A range spanning more than one chunk runs through rangePipeline, which
// keeps up to a window of coherence round trips in flight; a range inside
// one chunk is a single acquire, which allocates nothing.

// chunkSpan returns the chunk interval [ciLo, ciHi] covering elements
// [i, i+n), which must lie inside the array: the last chunk's storage is
// padded to a whole chunk, so a copy would run past the end unnoticed.
func (a *Array) chunkSpan(i, n int64) (ciLo, ciHi int64) {
	if i < 0 || i+n > a.sh.n {
		panic(fmt.Sprintf("core: range [%d,%d) out of range [0,%d)", i, i+n, a.sh.n))
	}
	return i / a.sh.chunkWords, (i + n - 1) / a.sh.chunkWords
}

// chargeCopy charges ctx the copy of n words to or from chunk ci, as a
// span of the range op tc when that is sampled.
func (a *Array) chargeCopy(ctx *cluster.Ctx, tc trace.Ctx, ci, n int64) {
	if m := a.model; m != nil {
		cc := m.CopyCost(int(8 * n))
		a.child(tc, a.self(), trace.StageService, "range-copy", ci, ctx.Clock.Now(), ctx.Clock.Now()+cc)
		ctx.Clock.Advance(cc)
	}
}

// GetRange copies elements [i, i+len(dst)) into dst. A range inside one
// chunk allocates nothing and costs one acquisition plus the copy, which
// is what lets a caller read a small record whole instead of word by
// word (internal/kvs does, twice per Get).
func (a *Array) GetRange(ctx *cluster.Ctx, i int64, dst []uint64) {
	if len(dst) == 0 {
		return
	}
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
		if tc.Trace != 0 {
			defer a.endRoot(ctx, tc, "GetRange", i/a.sh.chunkWords, t0)
		}
	}
	if ciLo, ciHi := a.chunkSpan(i, int64(len(dst))); ciHi > ciLo {
		end := i + int64(len(dst))
		a.rangePipeline(ctx, ciLo, ciHi, wantPinRead, 0, i, nil, func(p *Pin, _ bool) {
			lo, hi := maxi64(i, p.base), mini64(end, p.limit)
			copy(dst[lo-i:hi-i], p.d.data[lo-p.base:hi-p.base])
			a.chargeCopy(ctx, tc, p.d.ci, hi-lo)
		}, tc)
		return
	}
	var p Pin
	if !a.acquire(ctx, &p, i, wantPinRead, 0, tc) {
		return // cluster failed; see ctx.Err
	}
	copy(dst, p.d.data[i-p.base:])
	a.chargeCopy(ctx, tc, p.d.ci, int64(len(dst)))
	p.Unpin(ctx)
}

// SetRange copies src into elements [i, i+len(src)). Like GetRange it
// allocates nothing inside one chunk.
func (a *Array) SetRange(ctx *cluster.Ctx, i int64, src []uint64) {
	if len(src) == 0 {
		return
	}
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
		if tc.Trace != 0 {
			defer a.endRoot(ctx, tc, "SetRange", i/a.sh.chunkWords, t0)
		}
	}
	if ciLo, ciHi := a.chunkSpan(i, int64(len(src))); ciHi > ciLo {
		end := i + int64(len(src))
		a.rangePipeline(ctx, ciLo, ciHi, wantPinWrite, 0, i, src, func(p *Pin, filled bool) {
			if filled {
				return // the runtime stored this chunk's words with the grant
			}
			lo, hi := maxi64(i, p.base), mini64(end, p.limit)
			copy(p.d.data[lo-p.base:hi-p.base], src[lo-i:hi-i])
			a.chargeCopy(ctx, tc, p.d.ci, hi-lo)
		}, tc)
		return
	}
	var p Pin
	if !a.acquire(ctx, &p, i, wantPinWrite, 0, tc) {
		return // cluster failed; see ctx.Err
	}
	copy(p.d.data[i-p.base:], src)
	a.chargeCopy(ctx, tc, p.d.ci, int64(len(src)))
	p.Unpin(ctx)
}

// ApplyRange combines src[k] into element i+k for every k under the
// registered operator — a bulk Operate.
func (a *Array) ApplyRange(ctx *cluster.Ctx, op OpID, i int64, src []uint64) {
	if len(src) == 0 {
		return
	}
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
		if tc.Trace != 0 {
			defer a.endRoot(ctx, tc, "ApplyRange", i/a.sh.chunkWords, t0)
		}
	}
	ciLo, ciHi := a.chunkSpan(i, int64(len(src)))
	if a.shipMode != shipOff && a.shipActiveRange(ciLo, ciHi, op) {
		a.applyRangeShipped(ctx, op, i, src, tc)
		return
	}
	if ciHi > ciLo {
		end := i + int64(len(src))
		a.rangePipeline(ctx, ciLo, ciHi, wantPinOperate, op, i, nil, func(p *Pin, _ bool) {
			lo, hi := maxi64(i, p.base), mini64(end, p.limit)
			t1 := ctx.Clock.Now()
			for k := lo; k < hi; k++ {
				p.Apply(ctx, k, src[k-i])
			}
			a.noteRun(ctx, tc, p.d.ci, hi-lo, t1)
		}, tc)
		return
	}
	var p Pin
	if !a.acquire(ctx, &p, i, wantPinOperate, op, tc) {
		return // cluster failed; see ctx.Err
	}
	t1 := ctx.Clock.Now()
	for k, v := range src {
		p.Apply(ctx, i+int64(k), v)
	}
	a.noteRun(ctx, tc, p.d.ci, int64(len(src)), t1)
	p.Unpin(ctx)
}

// ApplyAt combines src[k] into element idx[k] for every k under the
// registered operator: ApplyRange's sibling for scattered indices. Each
// maximal run of consecutive entries of idx inside one chunk takes one
// Operate acquisition and combines through the pin, so the run pays the
// delay-flag/refcnt control path once instead of per element; a run on a
// chunk in shipped mode goes through Apply per element, which ships it.
// Entries need not be sorted, but a caller that groups them by chunk
// (propagation blocking) gets one acquisition per chunk. A call
// allocates nothing.
func (a *Array) ApplyAt(ctx *cluster.Ctx, op OpID, idx []int64, src []uint64) {
	if len(idx) != len(src) {
		panic(fmt.Sprintf("core: ApplyAt with %d indices and %d operands", len(idx), len(src)))
	}
	if len(idx) == 0 {
		return
	}
	var tc trace.Ctx
	var t0 int64
	if a.trc != nil {
		tc, t0 = a.rootSpan(ctx)
		if tc.Trace != 0 {
			defer a.endRoot(ctx, tc, "ApplyAt", idx[0]/a.sh.chunkWords, t0)
		}
	}
	for k := 0; k < len(idx); {
		ci, _ := a.locate(idx[k])
		end := k + 1
		for end < len(idx) {
			if c, _ := a.locate(idx[end]); c != ci {
				break
			}
			end++
		}
		if a.shipMode != shipOff && a.shipWanted(&a.dents[ci], ci, op) {
			for ; k < end; k++ {
				a.Apply(ctx, op, idx[k], src[k])
			}
			continue
		}
		var p Pin
		if !a.acquire(ctx, &p, idx[k], wantPinOperate, op, tc) {
			return // cluster failed; see ctx.Err
		}
		n, t1 := int64(end-k), ctx.Clock.Now()
		for ; k < end; k++ {
			p.Apply(ctx, idx[k], src[k])
		}
		a.noteRun(ctx, tc, p.d.ci, n, t1)
		p.Unpin(ctx)
	}
}

// noteCombines counts n combines a pinned run made: Pin.Apply counts
// nothing itself, so the bulk Operate calls add a run's length at once.
func (a *Array) noteCombines(n int64) {
	if a.telOn() {
		a.Metrics.Combines.Add(n)
	}
}

// noteRun accounts a pinned run of n combines on chunk ci that started at
// virtual time t1: it counts them and, when the range op tc is sampled,
// gives the run's CAS time a span of its own.
func (a *Array) noteRun(ctx *cluster.Ctx, tc trace.Ctx, ci, n, t1 int64) {
	a.noteCombines(n)
	if tc.Trace != 0 {
		a.child(tc, a.self(), trace.StageService, "pinned-apply", ci, t1, ctx.Clock.Now())
	}
}

// Reduce folds the whole array through the registered operator on the
// calling thread (chunk-pinned reads) and returns the result, starting
// from the operator's identity. It is a read-side convenience, not a
// collective: each caller scans the full array.
func (a *Array) Reduce(ctx *cluster.Ctx, op OpID) uint64 {
	o := a.op(op)
	acc := o.Identity
	buf := make([]uint64, a.sh.chunkWords)
	for i := int64(0); i < a.sh.n; {
		n := a.sh.chunkWords
		if i+n > a.sh.n {
			n = a.sh.n - i
		}
		a.GetRange(ctx, i, buf[:n])
		for _, v := range buf[:n] {
			acc = o.Fn(acc, v)
		}
		i += n
	}
	return acc
}
