package core

import (
	"darray/internal/cluster"
	"darray/internal/trace"
)

// Bulk transfers: chunk-wise ranged reads and writes. Internally each
// covered chunk is pinned once, so a bulk operation costs one reference
// acquisition per chunk instead of per element — the natural companion
// to the Pin interface for dense transfers (and the access pattern GAM
// was designed around, cf. §2).
//
// When the range spans more than one chunk and the array's pipeline
// depth is > 1, acquisitions run through rangePipeline so up to K
// coherence round trips are in flight at once; otherwise the serial
// chunk-at-a-time loop below is used (and is the ablation baseline).

// usePipeline reports whether a range over [i, i+n) should go through
// the async pipeline, and returns the covered chunk interval.
func (a *Array) usePipeline(i, n int64) (ciLo, ciHi int64, ok bool) {
	ciLo = i / a.sh.chunkWords
	ciHi = (i + n - 1) / a.sh.chunkWords
	return ciLo, ciHi, a.pipeline > 1 && ciHi > ciLo
}

// GetRange copies elements [i, i+len(dst)) into dst.
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
	if ciLo, ciHi, ok := a.usePipeline(i, int64(len(dst))); ok {
		end := i + int64(len(dst))
		a.rangePipeline(ctx, ciLo, ciHi, wantPinRead, 0, i, nil, func(p *Pin, _ bool) {
			lo, hi := maxi64(i, p.base), mini64(end, p.limit)
			copy(dst[lo-i:hi-i], p.d.data[lo-p.base:hi-p.base])
			if m := a.model; m != nil {
				cc := m.CopyCost(int(8 * (hi - lo)))
				a.child(tc, a.self(), trace.StageService, "range-copy", p.d.ci, ctx.Clock.Now(), ctx.Clock.Now()+cc)
				ctx.Clock.Advance(cc)
			}
			ctx.Stats.Ops++
		}, tc)
		return
	}
	for len(dst) > 0 {
		p := a.pin(ctx, i, wantPinRead, 0, tc)
		if p == nil {
			return // cluster failed; see ctx.Err
		}
		n := p.Limit() - i
		if n > int64(len(dst)) {
			n = int64(len(dst))
		}
		base := i - p.First()
		copy(dst[:n], p.d.data[base:base+n])
		if m := a.model; m != nil {
			cc := m.CopyCost(int(8 * n))
			a.child(tc, a.self(), trace.StageService, "range-copy", p.d.ci, ctx.Clock.Now(), ctx.Clock.Now()+cc)
			ctx.Clock.Advance(cc)
		}
		ctx.Stats.Ops++
		p.Unpin(ctx)
		dst = dst[n:]
		i += n
	}
}

// SetRange copies src into elements [i, i+len(src)).
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
	if ciLo, ciHi, ok := a.usePipeline(i, int64(len(src))); ok {
		end := i + int64(len(src))
		a.rangePipeline(ctx, ciLo, ciHi, wantPinWrite, 0, i, src, func(p *Pin, filled bool) {
			ctx.Stats.Ops++
			if filled {
				return // the runtime stored this chunk's words with the grant
			}
			lo, hi := maxi64(i, p.base), mini64(end, p.limit)
			copy(p.d.data[lo-p.base:hi-p.base], src[lo-i:hi-i])
			if m := a.model; m != nil {
				cc := m.CopyCost(int(8 * (hi - lo)))
				a.child(tc, a.self(), trace.StageService, "range-copy", p.d.ci, ctx.Clock.Now(), ctx.Clock.Now()+cc)
				ctx.Clock.Advance(cc)
			}
		}, tc)
		return
	}
	for len(src) > 0 {
		p := a.pin(ctx, i, wantPinWrite, 0, tc)
		if p == nil {
			return // cluster failed; see ctx.Err
		}
		n := p.Limit() - i
		if n > int64(len(src)) {
			n = int64(len(src))
		}
		base := i - p.First()
		copy(p.d.data[base:base+n], src[:n])
		if m := a.model; m != nil {
			cc := m.CopyCost(int(8 * n))
			a.child(tc, a.self(), trace.StageService, "range-copy", p.d.ci, ctx.Clock.Now(), ctx.Clock.Now()+cc)
			ctx.Clock.Advance(cc)
		}
		ctx.Stats.Ops++
		p.Unpin(ctx)
		src = src[n:]
		i += n
	}
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
	if a.shipMode != shipOff {
		ciLo := i / a.sh.chunkWords
		ciHi := (i + int64(len(src)) - 1) / a.sh.chunkWords
		if a.shipActiveRange(ciLo, ciHi, op) {
			a.applyRangeShipped(ctx, op, i, src, tc)
			return
		}
	}
	if ciLo, ciHi, ok := a.usePipeline(i, int64(len(src))); ok {
		end := i + int64(len(src))
		a.rangePipeline(ctx, ciLo, ciHi, wantPinOperate, op, i, nil, func(p *Pin, _ bool) {
			lo, hi := maxi64(i, p.base), mini64(end, p.limit)
			for k := lo; k < hi; k++ {
				p.Apply(ctx, k, src[k-i])
			}
		}, tc)
		return
	}
	for len(src) > 0 {
		p := a.pin(ctx, i, wantPinOperate, op, tc)
		if p == nil {
			return // cluster failed; see ctx.Err
		}
		n := p.Limit() - i
		if n > int64(len(src)) {
			n = int64(len(src))
		}
		for k := int64(0); k < n; k++ {
			p.Apply(ctx, i+k, src[k])
		}
		p.Unpin(ctx)
		src = src[n:]
		i += n
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
