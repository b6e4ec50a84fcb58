package cluster

import (
	"sync"
	"sync/atomic"
	"testing"

	"darray/internal/cc"
	"darray/internal/fabric"
	"darray/internal/vtime"
)

func TestRunSPMD(t *testing.T) {
	c := New(Config{Nodes: 4})
	defer c.Close()
	var visited [4]atomic.Int32
	c.Run(func(n *Node) { visited[n.ID()].Add(1) })
	for i := range visited {
		if visited[i].Load() != 1 {
			t.Fatalf("node %d visited %d times", i, visited[i].Load())
		}
	}
}

func TestConfigDefaults(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	cfg := c.Config()
	if cfg.RuntimeThreads != 2 || cfg.ChunkWords != 512 ||
		cfg.CacheChunks != 1024 || cfg.PrefetchAhead != 2 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestDefaultPolicyIsFixed: a zero Config builds its congestion
// controllers and Tx budgets under cc.Fixed (which holds both at their
// ceilings: cc.TestFixedPolicyHoldsTheCeiling), and a thread's
// controller keeps its window at PipelineDepth whatever queue the round
// trips show.
func TestDefaultPolicyIsFixed(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	if p := c.ccPolicy(); p != cc.Fixed {
		t.Fatalf("default policy %d, want cc.Fixed", p)
	}
	depth := c.Config().PipelineDepth
	ctrl := c.Node(0).NewCtx(0).CC(1)
	for k := int64(1); k <= 64; k++ {
		ctrl.OnAck(k*100_000, k*10_000, 0) // ever longer round trips: a growing queue
	}
	if got := ctrl.Window(depth); got != depth || ctrl.Backoffs() != 0 {
		t.Errorf("window %d after %d backoffs, want PipelineDepth %d and none", got, ctrl.Backoffs(), depth)
	}
}

func TestPrefetchDisable(t *testing.T) {
	c := New(Config{Nodes: 1, PrefetchAhead: -1})
	defer c.Close()
	if c.Config().PrefetchAhead != 0 {
		t.Fatalf("PrefetchAhead=-1 should mean disabled, got %d", c.Config().PrefetchAhead)
	}
}

func TestBarrierRendezvous(t *testing.T) {
	c := New(Config{Nodes: 3})
	defer c.Close()
	var phase atomic.Int32
	var maxSeen [3]int32
	var bad atomic.Int32
	c.Run(func(n *Node) {
		ctx := n.NewCtx(0)
		for p := int32(1); p <= 5; p++ {
			phase.Add(1)
			c.Barrier(ctx)
			maxSeen[n.ID()] = phase.Load()
			c.Barrier(ctx)
			if got := phase.Load(); got != 3*p {
				bad.Add(1)
			}
			// Third barrier so no node can race ahead into the next
			// phase increment before everyone has checked.
			c.Barrier(ctx)
		}
	})
	if bad.Load() != 0 {
		t.Fatalf("%d barrier-phase violations", bad.Load())
	}
	for i, v := range maxSeen {
		if v != 15 {
			t.Fatalf("node %d saw %d, want 15", i, v)
		}
	}
}

func TestBarrierMergesClocks(t *testing.T) {
	m := vtime.Default()
	c := New(Config{Nodes: 2, Model: m})
	defer c.Close()
	var exits [2]int64
	c.Run(func(n *Node) {
		ctx := n.NewCtx(0)
		ctx.Clock.Advance(int64(1000 * (n.ID() + 1))) // node0=1000, node1=2000
		c.Barrier(ctx)
		exits[n.ID()] = ctx.Clock.Now()
	})
	for i, e := range exits {
		if e < 2000+m.Wire {
			t.Fatalf("node %d exited barrier at %d, want >= %d", i, e, 2000+m.Wire)
		}
	}
}

func TestAllReduceSum(t *testing.T) {
	c := New(Config{Nodes: 4})
	defer c.Close()
	var got [4]float64
	for round := 0; round < 3; round++ {
		c.Run(func(n *Node) {
			got[n.ID()] = c.AllReduceSum(n.NewCtx(0), float64(n.ID()+1))
		})
		for i, v := range got {
			if v != 10 {
				t.Fatalf("round %d node %d: sum = %v, want 10", round, i, v)
			}
		}
	}
}

func TestCollectiveOnce(t *testing.T) {
	c := New(Config{Nodes: 4})
	defer c.Close()
	var created atomic.Int32
	vals := make([]any, 4)
	c.Run(func(n *Node) {
		vals[n.ID()] = n.Collective(func() any {
			created.Add(1)
			return "shared"
		})
	})
	if created.Load() != 1 {
		t.Fatalf("factory ran %d times, want 1", created.Load())
	}
	for i, v := range vals {
		if v != "shared" {
			t.Fatalf("node %d got %v", i, v)
		}
	}
	// A second collective must get a fresh slot.
	var second atomic.Int32
	c.Run(func(n *Node) {
		n.Collective(func() any { second.Add(1); return 2 })
	})
	if second.Load() != 1 {
		t.Fatalf("second factory ran %d times", second.Load())
	}
}

func TestRuntimeSubmit(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	rt := c.Node(0).Runtime(0)
	done := make(chan int, 10)
	for i := 0; i < 10; i++ {
		i := i
		rt.Submit(func(*Runtime) { done <- i })
	}
	for i := 0; i < 10; i++ {
		if got := <-done; got != i {
			t.Fatalf("runtime executed out of order: %d before %d", got, i)
		}
	}
}

func TestRuntimeStall(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	rt := c.Node(0).Runtime(0)
	var gate atomic.Bool
	done := make(chan struct{})
	rt.Submit(func(rt *Runtime) {
		tries := 0
		rt.Stall(func(*Runtime) bool {
			tries++
			if gate.Load() {
				close(done)
				return true
			}
			return false
		})
	})
	// Other work keeps flowing while the continuation is stalled.
	ok := make(chan struct{})
	rt.Submit(func(*Runtime) { close(ok) })
	<-ok
	select {
	case <-done:
		t.Fatal("stalled continuation completed before gate opened")
	default:
	}
	gate.Store(true)
	<-done
}

func TestSendRouting(t *testing.T) {
	c := New(Config{Nodes: 2, RuntimeThreads: 2})
	defer c.Close()
	recv := make(chan *fabric.Message, 4)
	route := Route{
		RuntimeOf: func(m *fabric.Message) int { return int(m.Chunk) % 2 },
		Handle:    func(rt *Runtime, m *fabric.Message) { m.Val = uint64(rt.Index()); recv <- m },
	}
	c.Node(0).RegisterRoute(7, route)
	c.Node(1).RegisterRoute(7, route)
	c.Node(0).Send(&fabric.Message{To: 1, Array: 7, Chunk: 3})
	c.Node(0).Send(&fabric.Message{To: 1, Array: 7, Chunk: 4})
	seen := map[int64]uint64{}
	for i := 0; i < 2; i++ {
		m := <-recv
		seen[m.Chunk] = m.Val
	}
	if seen[3] != 1 || seen[4] != 0 {
		t.Fatalf("messages routed to wrong runtimes: %v", seen)
	}
}

func TestCtxDeterministicRng(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	a := c.Node(0).NewCtx(0).Rng.Uint64()
	b := c.Node(0).NewCtx(0).Rng.Uint64()
	if a != b {
		t.Fatal("same (node,tid) must seed identically")
	}
	d := c.Node(1).NewCtx(0).Rng.Uint64()
	if a == d {
		t.Fatal("different nodes must seed differently")
	}
}

func TestRunThreads(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	var mu sync.Mutex
	tids := map[int]bool{}
	c.Node(0).RunThreads(8, func(ctx *Ctx) {
		mu.Lock()
		tids[ctx.TID] = true
		mu.Unlock()
	})
	if len(tids) != 8 {
		t.Fatalf("saw %d thread ids, want 8", len(tids))
	}
}

func TestNextArrayIDUnique(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	a, b := c.NextArrayID(), c.NextArrayID()
	if a == b || a == 0 || b == 0 {
		t.Fatalf("array ids not unique/nonzero: %d %d", a, b)
	}
}

func TestTxChargesSendCost(t *testing.T) {
	m := vtime.Default()
	c := New(Config{Nodes: 2, Model: m})
	defer c.Close()
	recv := make(chan *fabric.Message, 1)
	route := Route{
		RuntimeOf: func(*fabric.Message) int { return 0 },
		Handle:    func(_ *Runtime, msg *fabric.Message) { recv <- msg },
	}
	c.Node(1).RegisterRoute(1, route)
	c.Node(0).Send(&fabric.Message{To: 1, Array: 1, SendVT: 500})
	got := <-recv
	if got.VT < 500+m.SendCost()+m.Wire {
		t.Fatalf("arrival VT %d too early (send 500)", got.VT)
	}
}
