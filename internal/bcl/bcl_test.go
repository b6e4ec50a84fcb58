package bcl

import (
	"testing"

	"darray/internal/cluster"
	"darray/internal/vtime"
)

func tc(t *testing.T, nodes int, model *vtime.Model) *cluster.Cluster {
	t.Helper()
	c := cluster.New(cluster.Config{Nodes: nodes, Model: model})
	t.Cleanup(c.Close)
	return c
}

func TestGetSet(t *testing.T) {
	c := tc(t, 3, nil)
	c.Run(func(n *cluster.Node) {
		a := New(n, 300)
		ctx := n.NewCtx(0)
		lo, hi := a.LocalRange()
		for i := lo; i < hi; i++ {
			a.Set(ctx, i, uint64(i)+1000)
		}
		c.Barrier(ctx)
		for i := int64(0); i < a.Len(); i++ {
			if got := a.Get(ctx, i); got != uint64(i)+1000 {
				t.Errorf("a[%d] = %d, want %d", i, got, i+1000)
				return
			}
		}
		c.Barrier(ctx)
	})
}

func TestNoCacheEveryRemoteAccessIsARoundTrip(t *testing.T) {
	c := tc(t, 2, vtime.Default())
	c.Run(func(n *cluster.Node) {
		a := New(n, 200)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 0 {
			before, reads := ctx.Clock.Now(), n.Endpoint().Stats().Reads.Load()
			const reps = 10
			for k := 0; k < reps; k++ {
				a.Get(ctx, 150) // same remote element, no caching
			}
			rtt := c.Model().RTT8
			if got := ctx.Clock.Now() - before; got < reps*rtt {
				t.Errorf("10 repeated remote reads cost %d ns, want >= %d", got, reps*rtt)
			}
			if got := n.Endpoint().Stats().Reads.Load() - reads; got != reps {
				t.Errorf("one-sided reads = %d, want %d", got, reps)
			}
		}
		c.Barrier(ctx)
	})
}

func TestFetchAdd(t *testing.T) {
	const nodes, iters = 3, 60
	c := tc(t, nodes, nil)
	c.Run(func(n *cluster.Node) {
		a := New(n, 300)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		for k := 0; k < iters; k++ {
			a.FetchAdd(ctx, 7, 1)
		}
		c.Barrier(ctx)
		if got := a.Get(ctx, 7); got != nodes*iters {
			t.Errorf("counter = %d, want %d", got, nodes*iters)
		}
		c.Barrier(ctx)
	})
}

func TestGetBulkCrossesPartitions(t *testing.T) {
	c := tc(t, 3, nil)
	c.Run(func(n *cluster.Node) {
		a := New(n, 300)
		ctx := n.NewCtx(0)
		lo, hi := a.LocalRange()
		for i := lo; i < hi; i++ {
			a.Set(ctx, i, uint64(i))
		}
		c.Barrier(ctx)
		dst := make([]uint64, 250)
		a.GetBulk(ctx, 25, dst) // spans all three partitions
		for k, v := range dst {
			if v != uint64(25+k) {
				t.Errorf("bulk[%d] = %d, want %d", k, v, 25+k)
				return
			}
		}
		c.Barrier(ctx)
	})
}

func TestHomeOf(t *testing.T) {
	c := tc(t, 4, nil)
	c.Run(func(n *cluster.Node) {
		a := New(n, 400)
		for i := int64(0); i < 400; i++ {
			want := int(i / 100)
			if got := a.HomeOf(i); got != want {
				t.Errorf("HomeOf(%d) = %d, want %d", i, got, want)
				return
			}
		}
	})
}

func TestBoundsPanic(t *testing.T) {
	c := tc(t, 1, nil)
	c.Run(func(n *cluster.Node) {
		a := New(n, 10)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		a.Get(n.NewCtx(0), -1)
	})
}
