package core

import (
	"encoding/json"
	"strings"
	"testing"

	"darray/internal/cluster"
	"darray/internal/telemetry"
)

func withMetrics(cfg *cluster.Config) { cfg.Metrics = true }

// TestTransitionCounts drives a known access script through a 2-node
// cluster and checks that exactly the expected Figure-5 edges are
// counted: a remote read takes the home Unshared->Shared, the reader's
// write upgrade takes it Shared->Dirty, and the home's own read recalls
// the chunk, Dirty->Unshared.
func TestTransitionCounts(t *testing.T) {
	c := tc(t, 2, withMetrics)
	c.Run(func(n *cluster.Node) {
		a := New(n, 64) // one chunk, homed on node 0
		ctx := n.NewCtx(0)
		if n.ID() == 0 {
			a.Set(ctx, 0, 7) // home write: Unshared already grants RW
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			if got := a.Get(ctx, 0); got != 7 { // U -> S
				t.Errorf("remote read = %d, want 7", got)
			}
		}
		c.Barrier(ctx)
		if n.ID() == 1 {
			a.Set(ctx, 0, 8) // S -> D
		}
		c.Barrier(ctx)
		if n.ID() == 0 {
			if got := a.Get(ctx, 0); got != 8 { // D -> U (recall)
				t.Errorf("home read after remote write = %d, want 8", got)
			}
		}
		c.Barrier(ctx)
	})

	snap := c.Telemetry().Snapshot()
	for _, want := range []struct {
		name string
		n    int64
	}{
		{"core/coherence/" + TransUnsharedToShared.String(), 1},
		{"core/coherence/" + TransSharedToDirty.String(), 1},
		{"core/coherence/" + TransDirtyToUnshared.String(), 1},
		{"core/coherence/" + TransUnsharedToDirty.String(), 0},
	} {
		if got := snap.Total(want.name); got != want.n {
			t.Errorf("%s = %d, want %d", want.name, got, want.n)
		}
	}
	if hits := snap.Total("core/cache/hits"); hits == 0 {
		t.Error("expected nonzero cache hits")
	}
	if misses := snap.Total("core/cache/misses"); misses == 0 {
		t.Error("expected nonzero cache misses")
	}
	if recalls := snap.Total("core/coherence/recalls"); recalls != 1 {
		t.Errorf("recalls = %d, want 1", recalls)
	}
}

// TestFastPathGating checks the disabled-by-default contract: with
// telemetry off, the fast-path counters stay zero — the access paths only
// pay the enable check.
func TestFastPathGating(t *testing.T) {
	c := tc(t, 1)
	var arr *Array
	c.Run(func(n *cluster.Node) {
		arr = New(n, 128)
		ctx := n.NewCtx(0)
		for i := int64(0); i < 128; i++ {
			arr.Set(ctx, i, uint64(i))
		}
	})
	if got := arr.Metrics.Hits.Load(); got != 0 {
		t.Errorf("telemetry disabled but Metrics.Hits = %d", got)
	}

	c2 := tc(t, 1, withMetrics)
	c2.Run(func(n *cluster.Node) {
		a := New(n, 128)
		ctx := n.NewCtx(0)
		for i := int64(0); i < 128; i++ {
			a.Set(ctx, i, uint64(i))
		}
		if got := a.Metrics.Hits.Load(); got == 0 {
			t.Error("telemetry enabled but Metrics.Hits = 0")
		}
	})
}

// TestOperateMergeSplit checks that recall-driven and eviction-driven
// operand merges are told apart at the home.
func TestOperateMergeSplit(t *testing.T) {
	c := tc(t, 2, withMetrics)
	c.Run(func(n *cluster.Node) {
		a := New(n, 64)
		op := a.RegisterOp(Op{Identity: 0, Fn: func(a, b uint64) uint64 { return a + b }})
		ctx := n.NewCtx(0)
		a.Apply(ctx, op, 0, uint64(n.ID()+1)) // both nodes combine
		c.Barrier(ctx)
		if n.ID() == 0 {
			if got := a.Get(ctx, 0); got != 3 { // collapse: recalls node 1's buffer
				t.Errorf("merged value = %d, want 3", got)
			}
		}
		c.Barrier(ctx)
	})
	snap := c.Telemetry().Snapshot()
	if got := snap.Total("core/operate/merges_recalled"); got != 1 {
		t.Errorf("merges_recalled = %d, want 1", got)
	}
	if got := snap.Total("core/operate/merges"); got != 1 {
		t.Errorf("merges = %d, want 1", got)
	}
}

// TestClusterReportNonEmpty checks the end-to-end path an operator uses:
// enable metrics, run traffic, render the report.
func TestClusterReportNonEmpty(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) {
		cfg.Metrics = true
		cfg.MsgKindName = KindName
	})
	c.Run(func(n *cluster.Node) {
		a := New(n, 256)
		ctx := n.NewCtx(0)
		for i := int64(0); i < 256; i++ {
			a.Get(ctx, i)
		}
		c.Barrier(ctx)
	})
	rep := c.MetricsReport()
	for _, want := range []string{
		"core/cache/hits", "core/cache/misses", "fabric/msgs/read-req",
	} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
	var decoded struct {
		Metrics []telemetry.Metric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(c.MetricsJSON()), &decoded); err != nil {
		t.Fatalf("MetricsJSON did not parse: %v", err)
	}
	if len(decoded.Metrics) == 0 {
		t.Error("MetricsJSON has no metrics")
	}
}

// BenchmarkGetFastPath measures the resident-chunk Get fast path with
// telemetry disabled (the default: one extra atomic load) and enabled,
// to keep the disabled-path-overhead contract honest.
func BenchmarkGetFastPath(b *testing.B) {
	for _, mode := range []struct {
		name string
		on   bool
	}{{"telemetry-off", false}, {"telemetry-on", true}} {
		b.Run(mode.name, func(b *testing.B) {
			c := cluster.New(cluster.Config{
				Nodes: 1, ChunkWords: 512, CacheChunks: 64, Metrics: mode.on,
			})
			defer c.Close()
			c.Run(func(n *cluster.Node) {
				a := New(n, 1<<14)
				ctx := n.NewCtx(0)
				a.Set(ctx, 0, 1)
				b.ResetTimer()
				var sink uint64
				for i := 0; i < b.N; i++ {
					sink += a.Get(ctx, int64(i)&(1<<14-1))
				}
				_ = sink
			})
		})
	}
}

// TestMergedTrace checks that per-node rings interleave into one
// VT-ordered cluster timeline containing both sides of a remote read.
func TestMergedTrace(t *testing.T) {
	c := tc(t, 2)
	handles := make([]*Array, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 64)
		handles[n.ID()] = a
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			a.Get(ctx, 0)
		}
		c.Barrier(ctx)
	})
	evs := MergedTrace(handles[0], handles[1])
	if len(evs) == 0 {
		t.Fatal("merged trace is empty")
	}
	nodes := map[int]bool{}
	for i, e := range evs {
		nodes[e.Node] = true
		if i > 0 && e.VT < evs[i-1].VT {
			t.Fatalf("merged trace out of VT order at %d: %v after %v", i, e, evs[i-1])
		}
	}
	if !nodes[0] || !nodes[1] {
		t.Errorf("merged trace should contain events from both nodes: %v", evs)
	}
	joined := strings.Join(kindsOf(evs), " ")
	if !strings.Contains(joined, "read-req") || !strings.Contains(joined, "data-resp") {
		t.Errorf("merged trace missing protocol round trip: %s", joined)
	}
}
