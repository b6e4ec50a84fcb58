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
// A range spanning more than one chunk, and every ApplyRange and ApplyAt,
// runs through rangePipeline, which keeps up to a window of coherence
// round trips in flight; a GetRange or SetRange inside one chunk is a
// single acquire. Neither allocates.

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
		a.rangePipeline(ctx, runs{i: i, n: int64(len(dst))}, wantPinRead, 0, nil, func(p *Pin, k0, k1 int64, _ bool) {
			copy(dst[k0:k1], p.d.data[i+k0-p.base:i+k1-p.base])
			a.chargeCopy(ctx, tc, p.d.ci, k1-k0)
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
		a.rangePipeline(ctx, runs{i: i, n: int64(len(src))}, wantPinWrite, 0, src, func(p *Pin, k0, k1 int64, filled bool) {
			if filled {
				return // the runtime stored this chunk's words with the grant
			}
			copy(p.d.data[i+k0-p.base:i+k1-p.base], src[k0:k1])
			a.chargeCopy(ctx, tc, p.d.ci, k1-k0)
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
// registered operator — a bulk Operate. Each chunk of the range is a run
// of ApplyAt's pipeline: combined through a pin, or shipped as one batch.
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
	a.chunkSpan(i, int64(len(src))) // bounds check
	a.applyRuns(ctx, op, runs{i: i, n: int64(len(src))}, src, tc)
}

// ApplyAt combines src[k] into element idx[k] for every k under the
// registered operator: ApplyRange's sibling for scattered indices. Each
// maximal run of consecutive entries of idx inside one chunk takes one
// Operate acquisition and combines through the pin, so the run pays the
// delay-flag/refcnt control path once instead of per element; a run on a
// chunk in shipped mode ships as one batch, so it pays one round trip.
// The runs share ApplyRange's pipeline: while their chunks ascend, up to
// PipelineDepth Operated grants or shipped batches are in flight at once,
// so a caller that sorts its entries by chunk (propagation blocking) pays
// one acquisition per chunk and overlaps their round trips. A run whose chunk descends
// waits for the ones before it to finish. A call allocates nothing.
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
	a.applyRuns(ctx, op, runs{n: int64(len(idx)), idx: idx}, src, tc)
}

// applyRuns combines src[k] into element rs.at(k) for every position k
// through the pipeline: a run on a chunk in shipped mode goes to its home
// as one folded batch (issueShipInto), and every other run combines
// through its pin. A pinned run first folds consecutive operands for one
// element through the operator, which its associativity and
// commutativity permit, so the element takes one CAS; each folded operand
// is charged as a pinned access without the CAS.
func (a *Array) applyRuns(ctx *cluster.Ctx, op OpID, rs runs, src []uint64, tc trace.Ctx) {
	a.rangePipeline(ctx, rs, wantPinOperate, op, src, func(p *Pin, k0, k1 int64, _ bool) {
		t1, folds := ctx.Clock.Now(), int64(0)
		for k := k0; k < k1; {
			i, x := rs.at(k), src[k]
			for k++; k < k1 && rs.at(k) == i; k++ {
				x = p.apFn(x, src[k])
				folds++
			}
			p.Apply(ctx, i, x)
		}
		if m := a.model; m != nil {
			ctx.Clock.Advance(folds * m.PinAccess)
		}
		a.noteRun(ctx, tc, p.d.ci, k1-k0, t1)
	}, tc)
}

// noteRun accounts a pinned run of n combines on chunk ci that started at
// virtual time t1: Pin.Apply counts nothing itself, so the run adds its
// length at once and, when the range op tc is sampled, gives the run's
// CAS time a span of its own.
func (a *Array) noteRun(ctx *cluster.Ctx, tc trace.Ctx, ci, n, t1 int64) {
	if a.telOn() {
		a.Metrics.Combines.Add(n)
	}
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
