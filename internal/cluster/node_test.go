package cluster

import (
	"sync/atomic"
	"testing"
	"time"
)

func TestClusterReusableAcrossRuns(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	var total atomic.Int32
	for round := 0; round < 5; round++ {
		c.Run(func(n *Node) {
			ctx := n.NewCtx(0)
			c.Barrier(ctx)
			total.Add(1)
			c.Barrier(ctx)
		})
	}
	if total.Load() != 10 {
		t.Fatalf("runs executed %d node-functions, want 10", total.Load())
	}
}

func TestRuntimeAttachPerArray(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	rt := c.Node(0).Runtime(0)
	done := make(chan struct{})
	rt.Submit(func(rt *Runtime) {
		rt.Attach[1] = "first"
		rt.Attach[2] = "second"
		close(done)
	})
	<-done
	check := make(chan bool, 1)
	rt.Submit(func(rt *Runtime) {
		check <- rt.Attach[1] == "first" && rt.Attach[2] == "second"
	})
	if !<-check {
		t.Fatal("Attach state not preserved across submissions")
	}
}

func TestRuntimeIndexAndNode(t *testing.T) {
	c := New(Config{Nodes: 2, RuntimeThreads: 3})
	defer c.Close()
	n := c.Node(1)
	if n.Runtimes() != 3 {
		t.Fatalf("Runtimes = %d, want 3", n.Runtimes())
	}
	for i := 0; i < 3; i++ {
		rt := n.Runtime(i)
		if rt.Index() != i || rt.Node() != n {
			t.Fatalf("runtime %d misreports identity", i)
		}
	}
	if n.Cluster() != c || n.ID() != 1 {
		t.Fatal("node identity wrong")
	}
}

func TestStallManyContinuations(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	rt := c.Node(0).Runtime(0)
	const n = 50
	var fired atomic.Int32
	var gate atomic.Bool
	for i := 0; i < n; i++ {
		rt.Submit(func(rt *Runtime) {
			rt.Stall(func(*Runtime) bool {
				if !gate.Load() {
					return false
				}
				fired.Add(1)
				return true
			})
		})
	}
	// Interleaved work proceeds while n continuations are stalled.
	ok := make(chan struct{})
	rt.Submit(func(*Runtime) { close(ok) })
	<-ok
	gate.Store(true)
	deadline := make(chan struct{})
	rt.Submit(func(rt *Runtime) {
		rt.Stall(func(*Runtime) bool {
			if fired.Load() == n {
				close(deadline)
				return true
			}
			return false
		})
	})
	<-deadline
}

func TestBarrierNilCtx(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	c.Run(func(n *Node) {
		c.Barrier(nil) // must not panic without a clock
	})
}

func TestStringer(t *testing.T) {
	c := New(Config{Nodes: 2})
	defer c.Close()
	if s := c.String(); s == "" {
		t.Fatal("empty String()")
	}
}

// TestStallFromStalledContinuation: a continuation that completes may
// itself stall again (the protocol does: a demotion that drained its
// references then waits for a free cache line). The second stall must be
// retried like any other, including when an earlier continuation in the
// same batch is still pending.
func TestStallFromStalledContinuation(t *testing.T) {
	c := New(Config{Nodes: 1})
	defer c.Close()
	rt := c.Node(0).Runtime(0)
	var gate atomic.Bool
	done := make(chan struct{})
	rt.Submit(func(rt *Runtime) {
		rt.Stall(func(*Runtime) bool { return gate.Load() }) // stays pending
		rt.Stall(func(rt *Runtime) bool {
			rt.Stall(func(*Runtime) bool {
				close(done)
				return true
			})
			return true
		})
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a stall registered from a stalled continuation was never retried")
	}
	gate.Store(true)
}
