package core

import (
	"testing"

	"darray/internal/cluster"
)

// validateAll asserts the protocol invariants from node 0 after a
// barrier; the other nodes wait at a second barrier so the cluster stays
// quiescent during the check.
func validateAll(t *testing.T, c *cluster.Cluster, a *Array, ctx *cluster.Ctx) {
	t.Helper()
	c.Barrier(ctx)
	if a.node.ID() == 0 {
		if err := AwaitQuiesced(a.Instances()); err != nil {
			t.Errorf("coherence invariant violated: %v", err)
		}
	}
	c.Barrier(ctx)
}

func TestInvariantsAfterEachProtocolState(t *testing.T) {
	c := tc(t, 3)
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)

		// Fresh array: everything Unshared.
		validateAll(t, c, a, ctx)

		// All nodes read chunk 0 → Shared.
		_ = a.Get(ctx, 0)
		validateAll(t, c, a, ctx)

		// Node 2 writes chunk 0 → Dirty at node 2.
		if n.ID() == 2 {
			a.Set(ctx, 0, 1)
		}
		validateAll(t, c, a, ctx)

		// Everyone operates on chunk 1 → Operated with all nodes.
		a.Apply(ctx, add, 64, 1)
		validateAll(t, c, a, ctx)

		// A read collapses chunk 1 → Unshared (then Shared as all read).
		_ = a.Get(ctx, 64)
		validateAll(t, c, a, ctx)
	})
}

func TestInvariantsUnderStress(t *testing.T) {
	c := tc(t, 3, func(cfg *cluster.Config) { cfg.CacheChunks = 8 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 3*64*4)
		add := a.RegisterOp(OpAddU64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for round := 0; round < 4; round++ {
			for k := 0; k < 400; k++ {
				i := int64(ctx.Rng.Intn(int(a.Len())))
				switch ctx.Rng.Intn(5) {
				case 0:
					a.Get(ctx, i)
				case 1:
					a.WLock(ctx, i)
					a.Set(ctx, i, uint64(k))
					a.Unlock(ctx, i)
				case 2:
					a.Apply(ctx, add, i, 1)
				case 3:
					p := a.PinRead(ctx, i)
					p.Get(ctx, i)
					p.Unpin(ctx)
				case 4:
					// One element per home that every node locks: filled,
					// declined and plain writer grants.
					h := int64(ctx.Rng.Intn(3))*64*4 + 1
					a.WLock(ctx, h)
					a.Set(ctx, h, a.Get(ctx, h)+1)
					a.Unlock(ctx, h)
				}
			}
			validateAll(t, c, a, ctx)
		}
		if n.ID() == 0 {
			var fills, declines int64
			for _, inst := range a.Instances() {
				fills += inst.Metrics.LockFills.Load()
				declines += inst.Metrics.FillDeclines.Load()
			}
			if fills == 0 {
				t.Errorf("stress made no filled writer grant (%d declines)", declines)
			}
		}
	})
}

func TestValidateRejectsMixedArrays(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 64)
		b := New(n, 64)
		if n.ID() == 0 {
			mixed := []*Array{a.Instances()[0], b.Instances()[1]}
			if err := ValidateQuiesced(mixed); err == nil {
				t.Error("mixed-array validation should fail")
			}
			if err := ValidateQuiesced(nil); err == nil {
				t.Error("empty validation should fail")
			}
		}
	})
}
