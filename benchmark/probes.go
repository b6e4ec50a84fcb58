package main

import (
	"runtime"
	"time"

	"darray/internal/buf"
	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/fabric"
	"darray/internal/kvs"
	"darray/internal/queue"
	"darray/internal/vtime"
)

// Layer probes [P]: micro-loops that time each layer's public calls on
// a private one- or two-node instance, from outside the layer. They are
// the component latencies a miss or a KVS op is predicted from (see the
// README's "closing the story"). Every probe reports host ns per call,
// the median of probeRounds rounds; *_vt_ns probes report the virtual
// clock's view of the same calls under the frozen model.

const probeRounds = 5

// probeNs times fn(n) over probeRounds rounds and returns the median
// nanoseconds per iteration.
func probeNs(n int, fn func(n int)) float64 {
	per := make([]float64, probeRounds)
	for r := range per {
		t0 := now()
		fn(n)
		per[r] = float64(now()-t0) / float64(n)
	}
	return median(per)
}

// runProbes fills every [P] metric. scale shrinks iteration counts for
// the tests.
func runProbes(out metrics, scale float64) {
	n := func(full int) int { return max(50, int(float64(full)*scale)) }
	probeQueue(out, n)
	probeBuf(out, n)
	probeFabric(out, n)
	probeCluster(out, n)
	probeCoreFast(out, n)
	probeCoreSlow(out, n)
	out["kvs.slab_alloc_free_ns"] = probeNs(n(1_000_000), func(n int) {
		s := kvs.NewSlab(0, 1<<20)
		for i := 0; i < n; i++ {
			off, err := s.Alloc(17)
			if err != nil {
				panic(err)
			}
			s.Free(off, 17)
		}
	})
	out["vtime.acquire_ns"] = probeNs(n(2_000_000), func(n int) {
		var r vtime.Resource
		for i := 0; i < n; i++ {
			r.Acquire(int64(i)*10, 10)
		}
	})
}

func probeQueue(out metrics, n func(int) int) {
	out["queue.mpsc_push_pop_ns"] = probeNs(n(2_000_000), func(n int) {
		q := queue.NewMPSCPooled[int]()
		for i := 0; i < n; i++ {
			q.Push(i)
			q.Pop()
		}
	})
	out["queue.spsc_push_pop_ns"] = probeNs(n(2_000_000), func(n int) {
		q := queue.NewSPSC[int](64)
		for i := 0; i < n; i++ {
			q.TryPush(i)
			q.TryPop()
		}
	})
	// Hand-off: a ping-pong between two goroutines over two queues; half
	// a round trip is one Push-to-PopWait wake.
	out["queue.mpsc_handoff_ns"] = probeNs(n(50_000), func(n int) {
		ping, pong := queue.NewMPSCPooled[int](), queue.NewMPSCPooled[int]()
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				v, ok := ping.PopWait(stop)
				if !ok {
					return
				}
				pong.Push(v)
			}
		}()
		for i := 0; i < n; i++ {
			ping.Push(i)
			pong.PopWait(stop)
		}
		close(stop)
		<-done
	}) / 2
}

func probeBuf(out metrics, n func(int) int) {
	out["buf.get_release_ns"] = probeNs(n(2_000_000), func(n int) {
		p := buf.NewPool()
		for i := 0; i < n; i++ {
			p.Get(512).Release()
		}
	})
}

func probeFabric(out metrics, n func(int) int) {
	// Post must come from one goroutine per endpoint: the caller posts
	// from endpoint 0, the echo goroutine from endpoint 1.
	out["fabric.post_poll_ns"] = probeNs(n(50_000), func(n int) {
		f := fabric.New(fabric.Config{Nodes: 2, Pooled: true})
		a, b := f.Endpoint(0), f.Endpoint(1)
		done := make(chan struct{})
		go func() {
			defer close(done)
			for {
				m, ok := b.PollWait()
				if !ok {
					return
				}
				m.To = 0
				if err := b.Post(m); err != nil {
					panic(err)
				}
			}
		}()
		for i := 0; i < n; i++ {
			m := fabric.NewMessage()
			m.To = 1
			if err := a.Post(m); err != nil {
				panic(err)
			}
			m, _ = a.PollWait()
			fabric.FreeMessage(m)
		}
		f.Close()
		<-done
	}) / 2
	out["fabric.onesided_read_ns"] = probeNs(n(1_000_000), func(n int) {
		f := fabric.New(fabric.Config{Nodes: 2, Pooled: true})
		defer f.Close()
		f.Endpoint(1).RegisterMR(1, make([]uint64, 64))
		a := f.Endpoint(0)
		for i := 0; i < n; i++ {
			if _, err := a.ReadWord(nil, 1, 1, int64(i&63)); err != nil {
				panic(err)
			}
		}
	})
}

// probeCluster builds private clusters with the frozen model, like the
// workloads do.
func probeCluster(out metrics, n func(int) int) {
	cfg := cluster.Config{Nodes: nodes, Model: frozenModel()}

	news := make([]float64, 9)
	for i := range news {
		t0 := time.Now()
		cluster.New(cfg).Close()
		news[i] = float64(time.Since(t0)) / 1e6
	}
	out["cluster.new_close_ms"] = median(news)

	c := cluster.New(cfg)
	defer c.Close()

	ctx := c.Node(0).NewCtx(0)
	rt := c.Node(0).Runtime(0)
	out["cluster.submit_complete_ns"] = probeNs(n(50_000), func(n int) {
		for i := 0; i < n; i++ {
			rt.Submit(func(*cluster.Runtime) { ctx.Complete(cluster.Resp{}) })
			ctx.WaitResp()
		}
	})

	// A private route: node 1 echoes, node 0 signals the prober. This is
	// Send -> Tx -> fabric -> Rx -> Handle on a runtime, both ways, with
	// no protocol work.
	const probeArray = 0xbe9c4
	echoed := make(chan struct{}, 1)
	for i := 0; i < nodes; i++ {
		c.Node(i).RegisterRoute(probeArray, cluster.Route{
			RuntimeOf: func(*fabric.Message) int { return 0 },
			Handle: func(rt *cluster.Runtime, m *fabric.Message) {
				from := m.From
				fabric.FreeMessage(m)
				if rt.Node().ID() == 0 {
					echoed <- struct{}{}
					return
				}
				r := fabric.NewMessage()
				r.To, r.Array = from, probeArray
				rt.Node().Send(r)
			},
		})
	}
	out["cluster.send_handle_rtt_ns"] = probeNs(n(50_000), func(n int) {
		for i := 0; i < n; i++ {
			m := fabric.NewMessage()
			m.To, m.Array = 1, probeArray
			c.Node(0).Send(m)
			<-echoed
		}
	})

	out["cluster.barrier_ns"] = probeNs(n(50_000), func(n int) {
		c.Run(func(nd *cluster.Node) {
			for i := 0; i < n; i++ {
				c.Barrier(nil)
			}
		})
	})
}

func probeCoreFast(out metrics, n func(int) int) {
	const words = 1 << 15
	c := cluster.New(cluster.Config{Nodes: nodes, Model: frozenModel()})
	defer c.Close()
	var arr [nodes]*core.Array
	var add core.OpID
	c.Run(func(nd *cluster.Node) {
		arr[nd.ID()] = core.New(nd, words)
		if op := arr[nd.ID()].RegisterOp(core.OpAddU64); nd.ID() == 0 {
			add = op
		}
	})
	a, ctx := arr[0], c.Node(0).NewCtx(0)
	lo, hi := a.LocalRange()
	mask := hi - lo - 1 // the partition, a pinned chunk and a chunk are powers of two
	var sink uint64
	iters := n(2_000_000)
	out["core.fast.get_hit_ns"] = probeNs(iters, func(n int) {
		for i := int64(0); i < int64(n); i++ {
			sink += a.Get(ctx, lo+i&mask)
		}
	})
	out["core.fast.set_hit_ns"] = probeNs(iters, func(n int) {
		for i := int64(0); i < int64(n); i++ {
			a.Set(ctx, lo+i&mask, uint64(i))
		}
	})
	out["core.fast.apply_hit_ns"] = probeNs(iters, func(n int) {
		for i := int64(0); i < int64(n); i++ {
			a.Apply(ctx, add, lo+i&mask, 1)
		}
	})
	p := a.PinRead(ctx, lo)
	out["core.fast.pin_get_ns"] = probeNs(iters, func(n int) {
		first, mask := p.First(), p.Limit()-p.First()-1
		for i := int64(0); i < int64(n); i++ {
			sink += p.Get(ctx, first+i&mask)
		}
	})
	p.Unpin(ctx)
	// One miss brings a remote chunk in; every later Get of it is a hit.
	rlo, _ := arr[1].LocalRange()
	mask = a.ChunkWords() - 1
	out["core.fast.remote_hit_ns"] = probeNs(iters, func(n int) {
		for i := int64(0); i < int64(n); i++ {
			sink += a.Get(ctx, rlo+i&mask)
		}
	})
	runtime.KeepAlive(sink)
}

// probeCoreSlow measures the coherence slow path on a private two-node
// cluster whose cache never fills, so no eviction is mixed in. Node 0
// read-misses every chunk homed on node 1, then node 1 writes each of
// them, which invalidates node 0's copy and returns its buffer to the
// pool; barriers between the passes keep the two virtual clocks
// together. The first round allocates every buffer and is discarded:
// steady state recycles them. Figures are medians over the other rounds.
func probeCoreSlow(out metrics, n func(int) int) {
	misses := int64(n(2000))
	c := cluster.New(cluster.Config{Nodes: nodes, Model: frozenModel(), CacheChunks: 4096})
	defer c.Close()
	cw := int64(c.Config().ChunkWords)
	var arr [nodes]*core.Array
	c.Run(func(nd *cluster.Node) { arr[nd.ID()] = core.New(nd, nodes*misses*cw) })
	rlo, _ := arr[1].LocalRange()

	var readHost, readVt, readAllocs, writeHost, writeVt, lockHost, lockVt []float64
	clean := true
	pairs := int64(n(4000))
	c.Run(func(nd *cluster.Node) {
		a, ctx := arr[nd.ID()], nd.NewCtx(0)
		// timed runs pass on one node and appends its per-call cost on
		// both clocks.
		timed := func(node int, calls int64, host, vt *[]float64, pass func()) {
			if nd.ID() == node {
				h0, v0 := now(), ctx.Clock.Now()
				pass()
				*host = append(*host, float64(now()-h0)/float64(calls))
				*vt = append(*vt, float64(ctx.Clock.Now()-v0)/float64(calls))
			}
			c.Barrier(ctx)
		}
		for r := 0; r <= probeRounds; r++ {
			// Read misses, last chunk first: every read miss asks the runtime
			// to prefetch the chunks after it, and walking downwards those are
			// already resident, so each Get is exactly one miss and one fill.
			// The offset is never the sequential detector's mid-chunk sample.
			var m0, m1 runtime.MemStats
			if nd.ID() == 0 {
				runtime.GC()
				runtime.ReadMemStats(&m0)
			}
			miss0, fill0 := ctx.Stats.Misses, a.Metrics.Fills.Load()
			timed(0, misses, &readHost, &readVt, func() {
				for ci := misses - 1; ci >= 0; ci-- {
					a.Get(ctx, rlo+ci*cw+1)
				}
				runtime.ReadMemStats(&m1)
				readAllocs = append(readAllocs, float64(m1.Mallocs-m0.Mallocs)/float64(misses))
				if ctx.Stats.Misses-miss0 != misses || a.Metrics.Fills.Load()-fill0 != misses {
					clean = false // a prefetch or a hit slipped in: not one miss per Get
				}
			})
			// Invalidating writes: each home Set finds node 0 sharing the chunk.
			timed(1, misses, &writeHost, &writeVt, func() {
				for ci := int64(0); ci < misses; ci++ {
					a.Set(ctx, rlo+ci*cw+1, uint64(ci))
				}
			})
		}
		// Uncontended lock pairs on an element homed at the other node.
		for r := 0; r < probeRounds; r++ {
			timed(0, pairs, &lockHost, &lockVt, func() {
				for i := int64(0); i < pairs; i++ {
					a.RLock(ctx, rlo)
					a.Unlock(ctx, rlo)
				}
			})
		}
	})
	if clean {
		out["core.slow.read_miss_host_ns"] = median(readHost[1:])
		out["core.slow.read_miss_vt_ns"] = median(readVt[1:])
		out["core.slow.allocs_per_miss"] = median(readAllocs[1:])
	}
	out["core.slow.write_inval_host_ns"] = median(writeHost[1:])
	out["core.slow.write_inval_vt_ns"] = median(writeVt[1:])
	out["core.lock.pair_host_ns"] = median(lockHost)
	out["core.lock.pair_vt_ns"] = median(lockVt)
}
