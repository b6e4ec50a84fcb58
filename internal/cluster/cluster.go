// Package cluster provides the SPMD harness the distributed systems in
// this repository run on: N simulated nodes, each with private memory,
// per-node runtime goroutines (the paper's runtime layer), dedicated
// Tx/Rx comm goroutines (the paper's communication layer, §4.5), cyclic
// barriers, collectives, and per-application-thread contexts carrying a
// virtual clock and slow-path miss count.
//
// On the paper's testbed each node is a separate machine; here nodes are
// goroutine groups inside one process, connected by internal/fabric. The
// code paths are the real ones — lock-free queues between layers, a
// single Tx goroutine per node (which is what reduces queue pairs from
// n^2*t to n^2*c), Rx routing into per-runtime RPC queues — only the
// wire is simulated.
package cluster

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"darray/internal/buf"
	"darray/internal/cc"
	"darray/internal/fabric"
	"darray/internal/fault"
	"darray/internal/telemetry"
	"darray/internal/trace"
	"darray/internal/vtime"
)

// Config describes a cluster.
type Config struct {
	Nodes          int
	RuntimeThreads int          // runtime goroutines per node (default 2)
	Model          *vtime.Model // nil disables virtual-time accounting
	Faults         *fault.Plan  // nil means a perfect fabric (chaos testing injects one)

	// Cache geometry defaults used by systems built on the cluster.
	ChunkWords    int // elements (8-byte words) per chunk; default 512
	CacheChunks   int // cache capacity per runtime thread, in chunks; default 1024
	PrefetchAhead int // chunks prefetched after every read miss, sequential or not; default 2, -1 disables (and the Get detector too)

	// Transmit-path batching (paper §4.5, BCL-style aggregation). The Tx
	// thread drains up to TxBurst queued work requests per doorbell; the
	// burst leader pays the full doorbell cost, followers pay only the
	// chained-WQE cost (vtime.Model.ChainCost). 1 disables batching and
	// reproduces the one-doorbell-per-message behaviour exactly; default
	// 16.
	TxBurst int
	// PipelineDepth is the default number of outstanding chunk fetches a
	// bulk range operation keeps in flight (core.GetRange and friends).
	// 1 or -1 fetches one chunk at a time; default 8. With congestion
	// control active (the default) this is a ceiling: the per-(thread,
	// destination) controller picks the actual window.
	PipelineDepth int

	// NoCC builds every congestion controller with cc.Fixed instead of
	// cc.Adaptive: bulk pipelines run at PipelineDepth and the Tx thread
	// batches up to TxBurst, whatever the round trips say — the
	// static-knob reference of the contention experiment.
	NoCC bool

	// Ship selects the default function-shipping mode for arrays built on
	// this cluster: "auto" (per-chunk contention estimator; the default),
	// "on" (every remote Apply ships to the chunk's home), or "off"
	// (cached combining only, reproducing the pre-shipping protocol
	// bit-for-bit).
	Ship string

	// Telemetry optionally shares one metrics registry across clusters
	// (the benchmark harness builds one cluster per data point); nil
	// gives this cluster a private registry.
	Telemetry *telemetry.Registry
	// Tracer, when non-nil, receives causal spans from the systems built
	// on this cluster (internal/trace). It starts disabled unless the
	// caller has Enabled it; attached-but-disabled costs one atomic load
	// per public op.
	Tracer *trace.Tracer
	// Metrics enables telemetry collection from startup. When false the
	// instrumented fast paths pay only an atomic-load guard.
	Metrics bool
	// MsgKindName labels protocol message kinds in fabric metrics and
	// reports (e.g. core.KindName); nil falls back to "kind-N".
	MsgKindName func(uint8) string
}

func (c *Config) fill() {
	if c.Nodes <= 0 {
		panic("cluster: Nodes must be positive")
	}
	if c.RuntimeThreads <= 0 {
		c.RuntimeThreads = 2
	}
	if c.ChunkWords <= 0 {
		c.ChunkWords = 512
	}
	if c.CacheChunks <= 0 {
		c.CacheChunks = 1024
	}
	if c.PrefetchAhead < 0 {
		c.PrefetchAhead = 0
	} else if c.PrefetchAhead == 0 {
		c.PrefetchAhead = 2
	}
	if c.TxBurst <= 0 {
		if c.TxBurst < 0 {
			c.TxBurst = 1
		} else {
			c.TxBurst = 16
		}
	}
	if c.PipelineDepth <= 0 {
		if c.PipelineDepth < 0 {
			c.PipelineDepth = 1
		} else {
			c.PipelineDepth = 8
		}
	}
	switch c.Ship {
	case "":
		c.Ship = "auto"
	case "auto", "on", "off":
	default:
		panic("cluster: Ship must be auto, on, or off: " + c.Ship)
	}
}

// Cluster is a set of simulated nodes over one fabric.
type Cluster struct {
	cfg   Config
	fab   *fabric.Fabric
	nodes []*Node
	pool  *buf.Pool

	bar barrier

	collMu   sync.Mutex
	collSeq  map[uint64]*collSlot
	arraySeq uint32

	reduceMu  sync.Mutex
	reduceAcc float64
	reduceN   int

	tel        *telemetry.Registry
	telMu      sync.Mutex
	telHandles []*telemetry.Collector

	// First fatal fabric error (e.g. retry budget exhausted on an async
	// send). failCh closes once so every blocked Token.Wait unblocks and
	// applications degrade instead of deadlocking.
	failOnce sync.Once
	failErr  error
	failCh   chan struct{}

	closeOnce sync.Once
}

// New builds and starts a cluster: fabric, Rx/Tx comm goroutines, and
// runtime goroutines on every node.
func New(cfg Config) *Cluster {
	cfg.fill()
	c := &Cluster{
		cfg:     cfg,
		fab:     fabric.New(fabric.Config{Nodes: cfg.Nodes, Model: cfg.Model, Faults: cfg.Faults, Pooled: true}),
		pool:    buf.NewPool(),
		collSeq: make(map[uint64]*collSlot),
		tel:     cfg.Telemetry,
		failCh:  make(chan struct{}),
	}
	if c.tel == nil {
		c.tel = telemetry.New()
	}
	if cfg.Metrics {
		c.tel.Enable()
	}
	c.AddMetricsCollector(c.collectFabric)
	if cfg.Tracer != nil {
		c.AddMetricsCollector(cfg.Tracer.Collector())
	}
	c.bar.parties = cfg.Nodes
	c.nodes = make([]*Node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = newNode(c, i)
	}
	for _, n := range c.nodes {
		n.start()
	}
	return c
}

// Config returns the cluster's (filled-in) configuration.
func (c *Cluster) Config() Config { return c.cfg }

// ccPolicy is the policy every congestion controller of this cluster is
// built with — the one place Config.NoCC is read.
func (c *Cluster) ccPolicy() cc.Policy {
	if c.cfg.NoCC {
		return cc.Fixed
	}
	return cc.Adaptive
}

// Model returns the virtual-time model (may be nil).
func (c *Cluster) Model() *vtime.Model { return c.cfg.Model }

// Nodes returns the node count.
func (c *Cluster) Nodes() int { return c.cfg.Nodes }

// Node returns node i.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Fabric exposes the underlying fabric (for stats and baselines).
func (c *Cluster) Fabric() *fabric.Fabric { return c.fab }

// BufPool returns the cluster's shared payload buffer pool. Systems
// built on the cluster lease their outbound payloads here.
func (c *Cluster) BufPool() *buf.Pool { return c.pool }

// Detacher lets per-runtime attachments (Runtime.Attach values) release
// pooled resources at cluster teardown: Close calls Detach on every
// attachment implementing it, after all goroutines have stopped.
type Detacher interface{ Detach() }

// fail records the first fatal fabric error and unblocks every waiter.
func (c *Cluster) fail(err error) {
	c.failOnce.Do(func() {
		c.failErr = err
		close(c.failCh)
	})
}

// Err returns the first fatal fabric error, or nil while the cluster is
// healthy. Once non-nil the cluster is degraded: outstanding and future
// slow-path waits complete with this error instead of blocking.
func (c *Cluster) Err() error {
	select {
	case <-c.failCh:
		return c.failErr
	default:
		return nil
	}
}

// Failed reports whether the cluster has hit a fatal fabric error.
func (c *Cluster) Failed() bool { return c.Err() != nil }

// Run executes fn once per node, SPMD style, and returns when every
// node's function has returned.
func (c *Cluster) Run(fn func(n *Node)) {
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		wg.Add(1)
		go func(n *Node) {
			defer wg.Done()
			fn(n)
		}(n)
	}
	wg.Wait()
}

// Close stops all comm and runtime goroutines. The cluster must be
// quiescent (no Run in flight). Metrics collectors registered through
// this cluster are folded into the registry's retained store, so a
// shared registry keeps cluster-wide totals after the cluster dies.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		c.fab.Close()
		for _, n := range c.nodes {
			n.stopAll()
		}
		// All goroutines are stopped: return in-flight payloads and cached
		// lines to the pool so Outstanding()==0 after a clean shutdown (the
		// chaos leak check relies on this).
		for _, n := range c.nodes {
			n.drainResidual()
		}
		c.telMu.Lock()
		handles := c.telHandles
		c.telHandles = nil
		c.telMu.Unlock()
		for _, h := range handles {
			c.tel.RemoveCollector(h)
		}
	})
}

// Telemetry returns the cluster's metrics registry.
func (c *Cluster) Telemetry() *telemetry.Registry { return c.tel }

// Tracer returns the cluster's causal tracer, or nil when none is
// attached.
func (c *Cluster) Tracer() *trace.Tracer { return c.cfg.Tracer }

// AddMetricsCollector registers a snapshot-time metrics source whose
// lifetime is bound to this cluster: Close folds its final values into
// the registry so nothing references the dead cluster afterwards.
func (c *Cluster) AddMetricsCollector(fn telemetry.CollectorFunc) {
	h := c.tel.AddCollector(fn)
	c.telMu.Lock()
	c.telHandles = append(c.telHandles, h)
	c.telMu.Unlock()
}

// MetricsReport renders the current metrics snapshot as aligned text.
func (c *Cluster) MetricsReport() string { return c.tel.Snapshot().NonZero().Report() }

// MetricsJSON renders the current metrics snapshot as JSON.
func (c *Cluster) MetricsJSON() string { return c.tel.Snapshot().NonZero().JSON() }

// collectFabric contributes per-endpoint traffic counters and per-link
// byte histograms to metrics snapshots.
func (c *Cluster) collectFabric(emit telemetry.Emit) {
	perNode := func(name string, node int, v int64) {
		if v == 0 {
			return
		}
		per := make([]int64, node+1)
		per[node] = v
		emit(telemetry.Metric{Name: name, Kind: telemetry.KindCounter, PerNode: per})
	}
	// The pool is cluster-wide, not per node; report under node 0.
	perNode("buf/pool/hit", 0, c.pool.Hits())
	perNode("buf/pool/miss", 0, c.pool.Misses())
	perNode("buf/pool/retained", 0, c.pool.Retained())
	perNode("buf/pool/outstanding", 0, c.pool.Outstanding())
	for i := 0; i < c.cfg.Nodes; i++ {
		st := c.fab.Endpoint(i).Stats()
		perNode("fabric/coalesced_cmds", i, c.nodes[i].coalesced.Load())
		if h := c.nodes[i].dbHist.Data(); h.Count > 0 {
			per := make([]int64, i+1)
			per[i] = h.Count
			emit(telemetry.Metric{
				Name:    "fabric/doorbell_batch",
				Kind:    telemetry.KindHistogram,
				PerNode: per,
				Hist:    h,
			})
		}
		perNode("fabric/msgs_sent", i, st.MsgsSent.Load())
		perNode("fabric/bytes_sent", i, st.BytesSent.Load())
		perNode("fabric/onesided_ops", i, st.OneSidedOps.Load())
		perNode("fabric/onesided_bytes", i, st.OneSidedByte.Load())
		perNode("fabric/onesided_reads", i, st.Reads.Load())
		perNode("fabric/onesided_writes", i, st.Writes.Load())
		perNode("fabric/onesided_cas", i, st.CASs.Load())
		perNode("fabric/retransmits", i, st.Retransmits.Load())
		perNode("fabric/timeouts", i, st.Timeouts.Load())
		perNode("fabric/faults_injected", i, st.FaultsInjected.Load())
		perNode("fabric/dups_suppressed", i, st.DupsSuppressed.Load())
		kindName := func(k int) string {
			if k >= fabric.MaxMsgKinds {
				return "one-sided"
			}
			name := ""
			if c.cfg.MsgKindName != nil {
				name = c.cfg.MsgKindName(uint8(k))
			}
			if name == "" {
				name = fmt.Sprintf("kind-%d", k)
			}
			return name
		}
		for k := 0; k < fabric.MaxMsgKinds; k++ {
			n := st.KindCount(uint8(k))
			if n == 0 {
				continue
			}
			perNode("fabric/msgs/"+kindName(k), i, n)
		}
		for k := 0; k <= fabric.MaxMsgKinds; k++ {
			h := st.RetryHist(uint8(k)).Data()
			if h.Count == 0 {
				continue
			}
			per := make([]int64, i+1)
			per[i] = h.Count
			emit(telemetry.Metric{
				Name:    "fabric/retries/" + kindName(k),
				Kind:    telemetry.KindHistogram,
				PerNode: per,
				Hist:    h,
			})
		}
		for j := 0; j < c.cfg.Nodes; j++ {
			h := c.fab.Endpoint(i).LinkBytes(j).Data()
			if h.Count == 0 {
				continue
			}
			per := make([]int64, i+1)
			per[i] = h.Count
			emit(telemetry.Metric{
				Name:    fmt.Sprintf("fabric/link_bytes/%d->%d", i, j),
				Kind:    telemetry.KindHistogram,
				PerNode: per,
				Hist:    h,
			})
		}
	}
}

// NextArrayID allocates a cluster-unique id for a distributed object.
func (c *Cluster) NextArrayID() uint32 {
	c.collMu.Lock()
	defer c.collMu.Unlock()
	c.arraySeq++
	return c.arraySeq
}

type collSlot struct {
	once  sync.Once
	value any
	wg    sync.WaitGroup
	refs  int
}

// Collective runs factory exactly once across the cluster for the given
// per-node sequence number and returns its value on every node. All
// nodes must call Collective in the same order with matching seq values
// (each Node maintains the counter via Node.NextCollective).
func (c *Cluster) Collective(seq uint64, factory func() any) any {
	c.collMu.Lock()
	slot, ok := c.collSeq[seq]
	if !ok {
		slot = &collSlot{}
		slot.wg.Add(1)
		c.collSeq[seq] = slot
	}
	slot.refs++
	last := slot.refs == c.cfg.Nodes
	c.collMu.Unlock()

	slot.once.Do(func() {
		slot.value = factory()
		slot.wg.Done()
	})
	slot.wg.Wait()
	v := slot.value
	if last {
		c.collMu.Lock()
		delete(c.collSeq, seq)
		c.collMu.Unlock()
	}
	return v
}

// barrier is a cyclic sense-reversing barrier that also merges virtual
// clocks: every participant leaves at max(entry clocks) plus the
// modelled barrier latency.
type barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	gen     uint64
	maxVT   [2]int64
}

// Barrier blocks until every node has arrived. ctx may be nil (no
// virtual-time merge).
func (c *Cluster) Barrier(ctx *Ctx) {
	b := &c.bar
	b.mu.Lock()
	if b.cond == nil {
		b.cond = sync.NewCond(&b.mu)
	}
	slot := b.gen & 1
	if ctx != nil && ctx.Clock.Now() > b.maxVT[slot] {
		b.maxVT[slot] = ctx.Clock.Now()
	}
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.maxVT[1-slot] = 0 // reset the next generation's slot
		b.gen++
		b.cond.Broadcast()
	} else {
		gen := b.gen
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	exit := b.maxVT[slot]
	b.mu.Unlock()
	if ctx != nil {
		ctx.Clock.AdvanceTo(exit)
		if m := c.cfg.Model; m != nil {
			// Dissemination barrier: ceil(log2(n)) message rounds.
			rounds := int64(0)
			for p := 1; p < c.cfg.Nodes; p *= 2 {
				rounds++
			}
			ctx.Clock.Advance(rounds * m.Wire)
		}
	}
}

// AllReduceSum performs a sum all-reduce of v across nodes (one call per
// node per round) and returns the global sum to every caller.
func (c *Cluster) AllReduceSum(ctx *Ctx, v float64) float64 {
	c.reduceMu.Lock()
	c.reduceAcc += v
	c.reduceN++
	c.reduceMu.Unlock()
	c.Barrier(ctx)
	c.reduceMu.Lock()
	sum := c.reduceAcc
	c.reduceN--
	if c.reduceN == 0 {
		c.reduceAcc = 0
	}
	c.reduceMu.Unlock()
	c.Barrier(ctx)
	return sum
}

// Ctx is an application-thread context: the unit the interface layer is
// called from. It carries the thread's virtual clock, its deterministic
// RNG, and its slow-path miss count.
type Ctx struct {
	Node  *Node
	TID   int
	Clock vtime.Clock
	Rng   *rand.Rand
	Stats Stats

	resp Token    // the built-in completion slot WaitResp and Complete use
	err  error    // first completion error observed by this thread
	toks []*Token // recycled completion tokens

	// ccs[dst] is this thread's congestion controller toward node dst.
	// Built eagerly at NewCtx so runtime goroutines — the prefetcher
	// capping speculative issues by spare window — can read controllers
	// without racing lazy construction.
	ccs []*cc.Controller

	// Scratch is per-thread storage owned by the interface layer built on
	// this Ctx (core keeps its bulk-range request ring here, so a range
	// call allocates nothing per call).
	Scratch any

	// demand counts this thread's in-flight slow-path requests, one per
	// token between DemandStart and DemandEnd. Atomic: runtime
	// goroutines read it to cap speculative prefetch issue by the
	// thread's spare window credit.
	demand atomic.Int64
}

// Resp is the completion record a runtime goroutine sends back to a
// blocked application thread: the virtual time the request finished at,
// plus an optional value. RetransNs is the share of the grant's
// delivery latency the fabric's go-back-N recovery added (0 on a clean
// wire or a local grant) — the congestion controller's loss signal.
//
// Linked reports that the request itself started the coherence
// transaction that completed it: for a chunk homed elsewhere, its own
// message went to the home and the grant came back, so VT minus the
// issue time is one round trip. It is false for a request that rode
// somebody else's in-flight fill or found the chunk already resident —
// those complete in a fraction of a round trip and are not RTT samples.
//
// Filled reports that the runtime already stored the caller's source
// words into the chunk (a whole-chunk SetRange served by a payload-free
// write grant), so the caller skips its own copy.
type Resp struct {
	VT        int64
	Val       uint64
	RetransNs int64
	Linked    bool
	Filled    bool
	Err       error
}

// CC returns this thread's congestion controller toward node dst.
func (ctx *Ctx) CC(dst int) *cc.Controller { return ctx.ccs[dst] }

// DemandStart records one slow-path request entering flight.
func (ctx *Ctx) DemandStart() { ctx.demand.Add(1) }

// DemandEnd records its completion.
func (ctx *Ctx) DemandEnd() { ctx.demand.Add(-1) }

// DemandInflight returns the thread's in-flight slow-path request
// count. Safe from any goroutine.
func (ctx *Ctx) DemandInflight() int64 { return ctx.demand.Load() }

// WaitResp waits on the ctx's built-in token for the one completion a
// runtime goroutine delivers through Complete, recording an error on the
// ctx (see Token.Wait). The interface layer does not use it: each of its
// requests takes a token of its own from AcquireToken.
func (ctx *Ctx) WaitResp() Resp {
	r := ctx.resp.Wait()
	ctx.Fail(r.Err)
	return r
}

// Complete delivers the completion WaitResp waits for; called by
// runtime goroutines.
func (ctx *Ctx) Complete(r Resp) { ctx.resp.Complete(r) }

// Token is the completion slot of one slow-path request: every request
// an application thread hands a runtime goroutine completes through the
// token it was issued with, so one thread can keep several requests in
// flight — the bulk-transfer pipeline issues one per chunk — each with
// its own completion.
type Token struct {
	node *Node
	ch   chan Resp
}

// NewToken allocates a completion token bound to this node's cluster.
func (n *Node) NewToken() *Token { return &Token{node: n, ch: make(chan Resp, 1)} }

// Complete delivers the token's completion; called by runtime goroutines.
func (t *Token) Complete(r Resp) { t.ch <- r }

// Wait blocks until the token completes. If the cluster hits a fatal
// fabric error (a message the retransmission budget could not deliver)
// the completion may never arrive; Wait then returns a Resp carrying the
// cluster error so the thread degrades instead of deadlocking.
func (t *Token) Wait() Resp {
	select {
	case r := <-t.ch:
		return r
	case <-t.node.c.failCh:
		return Resp{Err: t.node.c.failErr}
	}
}

// AcquireToken returns a completion token, reusing one this thread
// recycled earlier when possible.
func (ctx *Ctx) AcquireToken() *Token {
	if k := len(ctx.toks); k > 0 {
		t := ctx.toks[k-1]
		ctx.toks = ctx.toks[:k-1]
		return t
	}
	return ctx.Node.NewToken()
}

// RecycleToken returns t to this thread's freelist for AcquireToken to
// reuse. Only tokens whose Wait returned a real completion may be
// recycled: after a cluster-failure Wait a runtime may still deliver
// into the token's channel, and that stale completion must not be
// mistaken for a future request's.
func (ctx *Ctx) RecycleToken(t *Token) { ctx.toks = append(ctx.toks, t) }

// Fail records the first error observed on this thread (completion
// errors from one-sided verbs or slow-path requests).
func (ctx *Ctx) Fail(err error) {
	if ctx.err == nil && err != nil {
		ctx.err = err
	}
}

// Err returns the first error observed on this thread, or the cluster's
// fatal error if any; nil while healthy. After a non-nil Err the array
// APIs return zero values rather than blocking.
func (ctx *Ctx) Err() error {
	if ctx.err != nil {
		return ctx.err
	}
	return ctx.Node.c.Err()
}

// Stats counts a thread's slow-path requests. Hits, combines and what
// the runtimes do are node-wide telemetry (core.Metrics).
type Stats struct {
	Misses int64 // slow-path requests to the runtime
}

// NewCtx creates a thread context on node n.
func (n *Node) NewCtx(tid int) *Ctx {
	ctx := &Ctx{
		Node: n,
		TID:  tid,
		Rng:  rand.New(rand.NewSource(int64(n.id)*1_000_003 + int64(tid)*7919 + 1)),
		resp: Token{node: n, ch: make(chan Resp, 1)},
		ccs:  make([]*cc.Controller, n.c.cfg.Nodes),
	}
	policy := n.c.ccPolicy()
	for i := range ctx.ccs {
		ctx.ccs[i] = cc.New(policy)
	}
	return ctx
}

// RunThreads runs fn on t application threads of this node and waits.
func (n *Node) RunThreads(t int, fn func(ctx *Ctx)) {
	var wg sync.WaitGroup
	for i := 0; i < t; i++ {
		wg.Add(1)
		go func(tid int) {
			defer wg.Done()
			fn(n.NewCtx(tid))
		}(i)
	}
	wg.Wait()
}

func (c *Cluster) String() string {
	return fmt.Sprintf("cluster{nodes:%d, runtimes:%d}", c.cfg.Nodes, c.cfg.RuntimeThreads)
}
