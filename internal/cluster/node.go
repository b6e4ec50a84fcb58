package cluster

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"darray/internal/cc"
	"darray/internal/fabric"
	"darray/internal/queue"
	"darray/internal/telemetry"
	"darray/internal/vtime"
)

// Node is one simulated machine: local memory, runtime goroutines, and a
// Tx/Rx comm pair over the fabric endpoint.
type Node struct {
	id  int
	c   *Cluster
	ep  *fabric.Endpoint
	rts []*Runtime

	txq  *queue.MPSC[*fabric.Message]
	stop chan struct{}
	wg   sync.WaitGroup

	routeMu sync.RWMutex
	routes  map[uint32]Route

	// Tx-path batching telemetry: work requests per doorbell, and how
	// many protocol commands destination coalescing absorbed.
	dbHist    telemetry.Histogram
	coalesced atomic.Int64

	collSeq atomic.Uint64
}

// Route decides which runtime thread handles a received protocol message
// and returns a handler to run on that runtime. Registered per array id.
type Route struct {
	// RuntimeOf maps a message to the index of the runtime goroutine
	// that owns its chunk (must match the sender's placement).
	RuntimeOf func(m *fabric.Message) int
	// Handle processes the message on its runtime goroutine.
	Handle func(rt *Runtime, m *fabric.Message)
	// Coalescible reports which payload-free protocol kinds the Tx
	// thread may destination-coalesce (nil: none). Only kinds whose
	// messages carry no Data and whose handling depends solely on
	// (From, Chunk, Flag, VT) are safe to mark.
	Coalescible func(kind uint8) bool
}

func newNode(c *Cluster, id int) *Node {
	n := &Node{
		id:     id,
		c:      c,
		ep:     c.fab.Endpoint(id),
		txq:    queue.NewMPSCPooled[*fabric.Message](),
		stop:   make(chan struct{}),
		routes: make(map[uint32]Route),
	}
	n.rts = make([]*Runtime, c.cfg.RuntimeThreads)
	for i := range n.rts {
		n.rts[i] = newRuntime(n, i)
	}
	return n
}

// ID returns the node id.
func (n *Node) ID() int { return n.id }

// Cluster returns the owning cluster.
func (n *Node) Cluster() *Cluster { return n.c }

// Endpoint returns the node's fabric endpoint.
func (n *Node) Endpoint() *fabric.Endpoint { return n.ep }

// Runtime returns runtime goroutine i of this node.
func (n *Node) Runtime(i int) *Runtime { return n.rts[i] }

// Runtimes returns the number of runtime goroutines.
func (n *Node) Runtimes() int { return len(n.rts) }

// NextCollective returns this node's next collective sequence number;
// combined with Cluster.Collective it implements collective creation.
func (n *Node) NextCollective() uint64 { return n.collSeq.Add(1) }

// Collective runs factory once cluster-wide, in program order.
func (n *Node) Collective(factory func() any) any {
	return n.c.Collective(n.NextCollective(), factory)
}

// RegisterRoute installs the message route for an array id. Must be
// called on every node before any message with that id can arrive
// (collective creation guarantees this).
func (n *Node) RegisterRoute(array uint32, r Route) {
	n.routeMu.Lock()
	defer n.routeMu.Unlock()
	n.routes[array] = r
}

// Send queues m for transmission by this node's Tx goroutine. m.SendVT
// must carry the producer's virtual ready time.
func (n *Node) Send(m *fabric.Message) {
	m.From = n.id
	n.txq.Push(m)
}

func (n *Node) start() {
	n.wg.Add(2)
	go n.txLoop()
	go n.rxLoop()
	for _, rt := range n.rts {
		rt.start()
	}
}

func (n *Node) stopAll() {
	close(n.stop)
	for _, rt := range n.rts {
		rt.stopRt()
	}
	n.wg.Wait()
}

// drainResidual returns pooled resources still sitting in the node's
// queues to their pools and detaches per-runtime attachments. Only
// valid after stopAll: it pops from queues whose consumers must be
// dead. Without it, a message in flight at Close would count as a
// leaked buffer.
func (n *Node) drainResidual() {
	for {
		m, ok := n.txq.Pop()
		if !ok {
			break
		}
		m.Payload.Release()
		fabric.FreeMessage(m)
	}
	n.ep.DrainRx()
	for _, rt := range n.rts {
		for {
			it, ok := rt.rpcq.Pop()
			if !ok {
				break
			}
			it.msg.Payload.Release()
			fabric.FreeMessage(it.msg)
		}
		for _, v := range rt.Attach {
			if d, ok := v.(Detacher); ok {
				d.Detach()
			}
		}
	}
}

// txLoop is the dedicated transmit thread (paper §4.5): it drains the
// RDMA-request queue and posts work requests, applying selective
// signaling accounting via the model's SendCost, charged as the Tx
// thread's own serial resource.
//
// Bursting: when the queue holds more than one message the loop drains
// up to TxBurst of them, destination-coalesces adjacent payload-free
// commands, and posts the burst behind a single doorbell — the leader
// pays the full SendCost, followers only the chained-WQE cost. TxBurst=1
// reproduces the unbatched per-message charging (a burst of one has
// nothing to coalesce).
//
// TxBurst is a ceiling: an AIMD budget (cc.Burst) shrinks the batch when
// posts needed go-back-N recovery — a big doorbell behind a lossy link
// turns one drop into a burst-wide resend — and grows it back one WQE
// per clean burst. Under cc.Fixed the budget stays at the ceiling.
func (n *Node) txLoop() {
	defer n.wg.Done()
	var txRes vtime.Resource
	mdl := n.c.cfg.Model
	bud := cc.NewBurst(n.c.cfg.TxBurst, n.c.ccPolicy())
	burst := make([]*fabric.Message, 0, n.c.cfg.TxBurst)
	for {
		m, ok := n.txq.PopWait(n.stop)
		if !ok {
			return
		}
		limit := bud.Limit()
		burst = append(burst[:0], m)
		for len(burst) < limit {
			m2, ok := n.txq.Pop()
			if !ok {
				break
			}
			burst = append(burst, m2)
		}
		if len(burst) > 1 {
			burst = n.coalesce(burst)
		}
		n.dbHist.Observe(int64(len(burst)))
		for i, m := range burst {
			if mdl != nil {
				_, end := txRes.Acquire(m.SendVT, mdl.PostCost(i == 0))
				m.SendVT = end
			}
			if err := n.ep.Post(m); err != nil {
				// The peer stayed unreachable past the retransmission
				// budget. There is no caller to hand the completion to (the
				// Tx thread is asynchronous), so mark the whole cluster
				// failed: every blocked WaitResp unblocks with this error.
				// The message was not delivered; its payload reference is
				// ours to release.
				m.Payload.Release()
				fabric.FreeMessage(m)
				n.c.fail(fmt.Errorf("node %d tx: %w", n.id, err))
			}
		}
		bud.OnBurst(n.ep.TakeRetransSignal())
	}
}

// coalesce merges adjacent burst entries that carry the same payload-free
// protocol command (kind and flag) to the same (destination, array): the
// survivor keeps its own chunk and accumulates the absorbed chunks in
// Data, and the Rx thread fans them back out. Only strictly adjacent
// runs are merged so per-destination FIFO order is preserved even with
// interleaved traffic.
func (n *Node) coalesce(burst []*fabric.Message) []*fabric.Message {
	out := burst[:0]
	var lead *fabric.Message
	var lr Route
	for _, m := range burst {
		if lead != nil && m.To == lead.To && m.Array == lead.Array &&
			m.Kind == lead.Kind && m.Flag == lead.Flag && len(m.Data) == 0 && !m.Coal &&
			lr.Coalescible != nil && lr.Coalescible(m.Kind) {
			lead.Coal = true
			if lead.Payload == nil {
				// Lease the absorbed-chunk index list at full burst
				// capacity so the appends below stay inside the buffer.
				lead.Payload = n.c.pool.Get(n.c.cfg.TxBurst)
				lead.Data = lead.Payload.Words()[:0]
			}
			lead.Data = append(lead.Data, uint64(m.Chunk))
			if m.Trace != 0 || lead.CoalTC != nil {
				// Keep CoalTC parallel to Data: backfill zero triples for
				// earlier untraced absorbed commands on first use.
				for len(lead.CoalTC) < 3*(len(lead.Data)-1) {
					lead.CoalTC = append(lead.CoalTC, 0)
				}
				lead.CoalTC = append(lead.CoalTC, m.Trace, m.PSpan, uint64(m.QueuedVT))
			}
			if m.SendVT > lead.SendVT {
				lead.SendVT = m.SendVT
			}
			n.coalesced.Add(1)
			fabric.FreeMessage(m) // absorbed; only its chunk index survives
			continue
		}
		lead = m
		n.routeMu.RLock()
		lr = n.routes[m.Array]
		n.routeMu.RUnlock()
		if len(m.Data) != 0 || m.Coal || lr.Coalescible == nil || !lr.Coalescible(m.Kind) {
			lead = nil // not a merge candidate; never absorb into it
		}
		out = append(out, m)
	}
	return out
}

// rxLoop is the dedicated receive thread: it polls the endpoint and
// delivers RPC messages to the runtime that owns the target chunk.
// Coalesced commands are fanned back out here: the wire carried one
// message, but each absorbed chunk is delivered to its owning runtime
// as if it had arrived alone.
func (n *Node) rxLoop() {
	defer n.wg.Done()
	for {
		m, ok := n.ep.PollWait()
		if !ok {
			return
		}
		n.routeMu.RLock()
		r, ok := n.routes[m.Array]
		n.routeMu.RUnlock()
		if !ok {
			// A message for an array this node hasn't registered is a
			// programming error; drop loudly in tests via panic.
			panic("cluster: message for unregistered array")
		}
		if m.Coal {
			// Never mutate m itself: the sender's endpoint may still hold
			// the same pointer for retransmission. Deliver copies, built
			// from a template taken before the first delivery — once a
			// copy is delivered its runtime may free it concurrently.
			tpl := *m
			tpl.Coal, tpl.Data, tpl.Payload, tpl.CoalTC = false, nil, nil, nil
			// Only the lead command owns the message's own trace context;
			// each absorbed command's context rides in CoalTC and is
			// restored onto its fan-out copy here (a copy without an
			// entry is untraced — it must not inherit the lead's, which
			// belongs to an unrelated op).
			ctpl := tpl
			ctpl.Trace, ctpl.PSpan = 0, 0
			restore := func(cm *fabric.Message, i int) {
				if tcs := m.CoalTC; len(tcs) >= 3*(i+1) {
					cm.Trace, cm.PSpan = tcs[3*i], tcs[3*i+1]
					cm.QueuedVT = int64(tcs[3*i+2])
				}
			}
			lead := fabric.NewMessage()
			*lead = tpl
			n.deliver(r, lead)
			for i, ci := range m.Data {
				cm := fabric.NewMessage()
				*cm = ctpl
				cm.Chunk = int64(ci)
				restore(cm, i)
				n.deliver(r, cm)
			}
			m.Payload.Release() // the absorbed-chunk index list
			fabric.FreeMessage(m)
			continue
		}
		n.deliver(r, m)
	}
}

func (n *Node) deliver(r Route, m *fabric.Message) {
	rt := n.rts[r.RuntimeOf(m)]
	rt.rpcq.Push(rpcItem{route: r, msg: m})
	rt.notify()
}

type rpcItem struct {
	route Route
	msg   *fabric.Message
}

// Runtime is one runtime-layer goroutine. It consumes the local-request
// queue (closures submitted by application threads on this node) and the
// RPC-message queue (protocol messages from remote nodes), and retries
// stalled protocol transitions as continuations so a blocked chunk never
// wedges the queue.
type Runtime struct {
	node *Node
	idx  int

	localq *queue.MPSC[func(rt *Runtime)]
	rpcq   *queue.MPSC[rpcItem]

	// served counts the local requests this runtime has run. Only its own
	// goroutine adds to it; LocalServed reads it from anywhere.
	served atomic.Int64

	stalled []func(rt *Runtime) bool // retried until they report done
	retried []func(rt *Runtime) bool // the previous retry batch's storage, reused

	// Res serializes this runtime's virtual service time.
	Res vtime.Resource

	// Attach holds per-array runtime-local state (e.g. the DArray cache
	// region owned by this runtime thread), keyed by array id.
	Attach map[uint32]any

	parked atomic.Int32
	wake   chan struct{}
	stop   chan struct{}
	done   chan struct{}
}

func newRuntime(n *Node, idx int) *Runtime {
	return &Runtime{
		node:   n,
		idx:    idx,
		localq: queue.NewMPSCPooled[func(rt *Runtime)](),
		rpcq:   queue.NewMPSCPooled[rpcItem](),
		Attach: make(map[uint32]any),
		wake:   make(chan struct{}, 1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Node returns the owning node.
func (rt *Runtime) Node() *Node { return rt.node }

// Index returns this runtime's index within its node.
func (rt *Runtime) Index() int { return rt.idx }

// Submit enqueues a local request for this runtime (the paper's
// local-request queue) and wakes it.
func (rt *Runtime) Submit(fn func(rt *Runtime)) {
	rt.localq.Push(fn)
	rt.notify()
}

// LocalServed returns how many submitted local requests this runtime has
// run so far: the traffic on the paper's local-request queue, which a
// lock-free access path must not add to.
func (rt *Runtime) LocalServed() int64 { return rt.served.Load() }

// Stall registers a continuation to be retried by the runtime loop until
// it returns true. Must only be called from this runtime's goroutine.
func (rt *Runtime) Stall(fn func(rt *Runtime) bool) {
	rt.stalled = append(rt.stalled, fn)
}

func (rt *Runtime) notify() {
	if rt.parked.Load() == 1 && rt.parked.CompareAndSwap(1, 0) {
		rt.wake <- struct{}{}
	}
}

func (rt *Runtime) start() { go rt.loop() }

func (rt *Runtime) stopRt() {
	close(rt.stop)
	rt.notify()
	<-rt.done
}

func (rt *Runtime) loop() {
	defer close(rt.done)
	for {
		progress := false
		for i := 0; i < 64; i++ {
			fn, ok := rt.localq.Pop()
			if !ok {
				break
			}
			rt.served.Add(1) // before fn: whoever sees fn's effects sees it counted
			fn(rt)
			progress = true
		}
		for i := 0; i < 64; i++ {
			it, ok := rt.rpcq.Pop()
			if !ok {
				break
			}
			it.route.Handle(rt, it.msg)
			progress = true
		}
		if len(rt.stalled) > 0 {
			// A continuation that completes may register further stalls (a
			// drained demotion that then waits for a cache line), so retry
			// the batch that was pending against a fresh list: Stall
			// appends land behind the ones kept, none is overwritten.
			pend := rt.stalled
			rt.stalled, rt.retried = rt.retried[:0], nil
			for i, fn := range pend {
				if !fn(rt) {
					rt.stalled = append(rt.stalled, fn)
				} else {
					progress = true
				}
				pend[i] = nil
			}
			rt.retried = pend
		}
		if progress {
			continue
		}
		select {
		case <-rt.stop:
			return
		default:
		}
		if len(rt.stalled) > 0 {
			// Stalled continuations wait on app-thread refcounts; yield
			// so those threads can run on this core.
			runtime.Gosched()
			continue
		}
		rt.parked.Store(1)
		if !rt.localq.Empty() || !rt.rpcq.Empty() {
			if !rt.parked.CompareAndSwap(1, 0) {
				<-rt.wake
			}
			continue
		}
		select {
		case <-rt.wake:
		case <-rt.stop:
			return
		}
	}
}
