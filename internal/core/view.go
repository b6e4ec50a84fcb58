package core

import (
	"math"

	"darray/internal/cluster"
	"darray/internal/trace"
)

// F64 is a float64-typed view of an Array: the same distributed storage
// accessed through math.Float64bits casts, mirroring how the paper's
// PageRank example stores double-typed ranks in the 8-byte object array.
type F64 struct{ *Array }

// AsF64 returns a float64 view of the array.
func (a *Array) AsF64() F64 { return F64{a} }

// Get reads element i as a float64.
func (f F64) Get(ctx *cluster.Ctx, i int64) float64 {
	return math.Float64frombits(f.Array.Get(ctx, i))
}

// Set writes element i as a float64.
func (f F64) Set(ctx *cluster.Ctx, i int64, v float64) {
	f.Array.Set(ctx, i, math.Float64bits(v))
}

// Apply combines a float64 operand into element i.
func (f F64) Apply(ctx *cluster.Ctx, op OpID, i int64, operand float64) {
	f.Array.Apply(ctx, op, i, math.Float64bits(operand))
}

// Fill sets every element this node homes to x (a common collective
// initialization idiom: each node fills its own partition, then the
// cluster barriers). It writes a chunk per acquisition, charged like a
// single-chunk SetRange, and needs no source buffer.
func (a *Array) Fill(ctx *cluster.Ctx, x uint64) {
	lo, hi := a.LocalRange()
	for i := lo; i < hi; {
		var p Pin
		if !a.acquire(ctx, &p, i, wantPinWrite, 0, trace.Ctx{}) {
			return // cluster failed; see ctx.Err
		}
		end := mini64(hi, p.limit)
		w := p.d.data[i-p.base : end-p.base]
		for k := range w {
			w[k] = x
		}
		a.chargeCopy(ctx, trace.Ctx{}, p.d.ci, end-i)
		p.Unpin(ctx)
		i = end
	}
}

// FillF64 is Fill for a float64 value.
func (f F64) FillF64(ctx *cluster.Ctx, x float64) {
	f.Fill(ctx, math.Float64bits(x))
}
