package core

import (
	"fmt"
	"sort"
	"sync/atomic"

	"darray/internal/buf"
	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/telemetry"
	"darray/internal/trace"
	"darray/internal/vtime"
)

// shared is the cluster-global descriptor of one distributed array,
// created once by collective construction and referenced by every
// node's Array handle.
type shared struct {
	id         uint32
	n          int64 // total elements (8-byte words)
	chunkWords int64
	nChunks    int64
	// starts[v] is the first chunk homed on node v; starts[nodes] == nChunks.
	starts []int64
	ops    atomic.Pointer[[]Op] // registered operators; OpID-1 indexes
	insts  []*Array             // per-node instances
}

// Array is one node's handle to a distributed array. All methods taking
// a *cluster.Ctx may be called from any number of application threads.
type Array struct {
	sh    *shared
	node  *cluster.Node
	model *vtime.Model
	local []uint64 // this node's subarray
	dents []dentry // one per global chunk

	// reg is the owning cluster's telemetry registry; its enable flag
	// gates the fast-path counters below (see telOn).
	reg *telemetry.Registry

	// pool is the cluster's payload buffer pool (see zerocopy.go).
	pool *buf.Pool

	// Protocol counters (updated by runtime goroutines with atomics).
	Metrics Metrics

	// pipeline is the cluster's PipelineDepth (>= 1): the ceiling of the
	// window a bulk range keeps in flight toward one destination.
	pipeline int
	// ccCwnd/ccSrtt sample the window (chunks) and smoothed RTT (virtual
	// ns) at each remote bulk completion, telemetry-gated like the
	// fast-path counters.
	ccCwnd telemetry.Histogram
	ccSrtt telemetry.Histogram
	// shipMode is the cluster's function-shipping mode
	// (shipOff/shipAuto/shipOn; see ship.go).
	shipMode uint8
	// seqTrig is the mid-chunk offset at which Get feeds the sequential
	// detector; -1 disables the detector entirely.
	seqTrig int64
	// seq is the detector state, packed chunk<<8 | streak (see noteSeq).
	seq atomic.Int64

	tr tracer // optional protocol event recorder (see EnableTrace)

	// trc is the cluster's causal span tracer (nil when the cluster was
	// built without one); see tracespan.go for the cost discipline.
	trc *trace.Tracer
}

// Metrics aggregates protocol-side events for one node's handle.
//
// Slow-path counters (everything the runtime goroutines touch) are
// always maintained. The fast-path group at the bottom is only counted
// while cluster telemetry is enabled, so the lock-free access paths pay
// a single atomic load when it is not.
type Metrics struct {
	Fills      atomic.Int64 // cache lines filled from remote data
	Evictions  atomic.Int64
	WriteBacks atomic.Int64
	OpFlushes  atomic.Int64 // combined-operand flushes sent to home
	OpMerges   atomic.Int64 // operand buffers merged at home
	Invals     atomic.Int64 // invalidations processed
	Recalls    atomic.Int64
	Prefetches atomic.Int64

	Downgrades        atomic.Int64 // Dirty owners asked to write back but keep reading
	OpMergesVoluntary atomic.Int64 // merges of eviction-driven (voluntary) flushes
	OpMergesRecalled  atomic.Int64 // merges demanded by an Operated collapse
	ReclaimSweeps     atomic.Int64 // clock-hand reclamation passes (paper §4.2)
	ReclaimScanned    atomic.Int64 // cache lines inspected by those passes
	RefDrainStalls    atomic.Int64 // permission demotions that waited out live references

	// Transitions counts each edge of the home directory state machine
	// (paper Figure 5), indexed by Transition.
	Transitions [NumTransitions]atomic.Int64

	// Prefetch accounting. Prefetches counts issued speculative fills
	// (both the slow-path miss prefetcher and the sequential detector);
	// hit/wasted attribution of already-filled lines depends on the
	// telemetry-gated fast-path check, so treat the split as a
	// telemetry-mode statistic.
	PrefetchHits      atomic.Int64 // speculative fills consumed by a demand access
	PrefetchWasted    atomic.Int64 // speculative fills evicted or invalidated untouched
	PrefetchThrottled atomic.Int64 // speculative issues withheld for lack of spare window credit

	// Congestion-control accounting (see internal/cc).
	CCBackoffs atomic.Int64 // multiplicative backoffs + timeout-grade resets observed by bulk pipelines

	// Fast-path counters, gated on cluster telemetry (see telOn).
	Hits        atomic.Int64 // fast-path accesses served from a resident chunk
	Misses      atomic.Int64 // slow-path requests submitted to the runtime
	DelayStalls atomic.Int64 // fast-path encounters with a raised delay flag
	PinFast     atomic.Int64 // pins granted on the lock-free path
	PinSlow     atomic.Int64 // pins that needed the runtime
	Combines    atomic.Int64 // Operate combines into a local buffer

	// Function-shipping accounting (see ship.go). ShipOps counts shipped
	// ops applied at this home; ShipFlips counts estimator mode flips;
	// ShipBytesSaved estimates flush traffic avoided (chunk bytes minus
	// shipped operand bytes per op, floored at zero).
	ShipOps        atomic.Int64
	ShipFlips      atomic.Int64
	ShipBytesSaved atomic.Int64

	// Reader-lease accounting (see lock.go). LeaseGrants and LeaseRecalls
	// count at the home: grants that carried a lease, and lease-recall
	// messages a writer made it send.
	LeaseGrants  atomic.Int64
	LeaseRecalls atomic.Int64

	// Writer fills, counted at the home: remote writer grants that carried
	// the element's chunk, and fill requests declined because the lock
	// could not be granted on arrival.
	LockFills    atomic.Int64
	FillDeclines atomic.Int64

	// Reader-gate accounting. GateCloses counts open gates the runtime
	// shut (a writer's request at the home, a recall or a returning writer
	// on a lessee); GateDrains the shut gates that still had readers
	// inside, each reported once by the last reader out. The RLocks gates
	// admitted are counted in the gate words themselves, not with another
	// atomic per hit: gateHits and leaseHits hold those of past openings
	// (all gates, and gates of elements homed elsewhere — hits under a
	// lease), and GateHits adds the words' live counts.
	GateCloses atomic.Int64
	GateDrains atomic.Int64
	gateHits   atomic.Int64
	leaseHits  atomic.Int64

	// Zero-copy data-path accounting (see zerocopy.go for the
	// lease/adopt/donate vocabulary).
	Leases        atomic.Int64 // payload buffers leased from the pool
	Adopts        atomic.Int64 // inbound grant buffers adopted as line backing
	Donates       atomic.Int64 // line buffers donated as outbound payloads
	PayloadCopies atomic.Int64 // payloads that still required a copy
}

// Options configures construction beyond the defaults.
type Options struct {
	// PartitionOffset optionally assigns each node's first element,
	// mirroring the paper's partition_offset constructor argument.
	// len == nodes; offsets must be non-decreasing, start at 0, and are
	// rounded up to chunk boundaries.
	PartitionOffset []int64
}

// New collectively creates a distributed array of n 8-byte elements,
// evenly partitioned across the cluster's nodes by default. Every node
// must call New in the same program order (SPMD). Of several Options
// values the last one that sets a field wins.
func New(node *cluster.Node, n int64, opts ...Options) *Array {
	if n <= 0 {
		panic("core: array length must be positive")
	}
	var opt Options
	for _, o := range opts {
		if o.PartitionOffset != nil {
			opt.PartitionOffset = o.PartitionOffset
		}
	}
	c := node.Cluster()
	shAny := node.Collective(func() any { return buildShared(c, n, opt) })
	sh := shAny.(*shared)
	a := sh.insts[node.ID()]
	a.wire()
	c.Barrier(nil) // all routes registered before any traffic
	return a
}

func buildShared(c *cluster.Cluster, n int64, opt Options) *shared {
	cw := int64(c.Config().ChunkWords)
	nChunks := (n + cw - 1) / cw
	nodes := int64(c.Nodes())
	sh := &shared{
		id:         c.NextArrayID(),
		n:          n,
		chunkWords: cw,
		nChunks:    nChunks,
	}
	empty := make([]Op, 0, 8)
	sh.ops.Store(&empty)
	sh.starts = make([]int64, nodes+1)
	if opt.PartitionOffset != nil {
		if int64(len(opt.PartitionOffset)) != nodes {
			panic(fmt.Sprintf("core: PartitionOffset has %d entries for %d nodes",
				len(opt.PartitionOffset), nodes))
		}
		prev := int64(0)
		for v := int64(0); v < nodes; v++ {
			off := opt.PartitionOffset[v]
			if off < prev || off > n {
				panic("core: PartitionOffset must be non-decreasing and within bounds")
			}
			sh.starts[v] = (off + cw - 1) / cw
			if sh.starts[v] > nChunks {
				sh.starts[v] = nChunks
			}
			prev = off
		}
		if sh.starts[0] != 0 {
			panic("core: PartitionOffset[0] must be 0")
		}
	} else {
		per := (nChunks + nodes - 1) / nodes
		for v := int64(0); v < nodes; v++ {
			s := v * per
			if s > nChunks {
				s = nChunks
			}
			sh.starts[v] = s
		}
	}
	sh.starts[nodes] = nChunks

	// The detector samples Get at mid-chunk: far enough in to confirm a
	// streaming pattern, early enough that the speculative fill beats the
	// scan to the next chunk boundary.
	seqTrig := cw / 2
	if c.Config().PrefetchAhead == 0 {
		seqTrig = -1 // prefetch off cluster-wide turns the detector off too
	}

	sh.insts = make([]*Array, nodes)
	for v := int64(0); v < nodes; v++ {
		node := c.Node(int(v))
		a := &Array{sh: sh, node: node, model: c.Model(), reg: c.Telemetry(),
			pipeline: c.Config().PipelineDepth, seqTrig: seqTrig,
			shipMode: shipModeOf(c.Config().Ship),
			pool:     c.BufPool(), trc: c.Tracer()}
		lo, hi := sh.starts[v]*cw, sh.starts[v+1]*cw
		if hi > n {
			hi = n
		}
		if lo > hi {
			lo = hi
		}
		// Home storage is rounded up to whole chunks so protocol data
		// transfers are always chunk sized.
		words := (hi - lo + cw - 1) / cw * cw
		a.local = make([]uint64, words)
		a.dents = make([]dentry, nChunks)
		for ci := range a.dents {
			a.dents[ci].ci = int64(ci)
			a.dents[ci].owner = -1
		}
		for ci := sh.starts[v]; ci < sh.starts[v+1]; ci++ {
			d := &a.dents[ci]
			off := (ci - sh.starts[v]) * cw
			d.data = a.local[off : off+cw]
			d.state.Store(permRW) // Unshared: home may R/W/O
			d.dstate = dirUnshared
		}
		sh.insts[v] = a
	}
	return sh
}

// wire registers this node's fabric route and memory region and attaches
// per-runtime state.
func (a *Array) wire() {
	nrt := a.node.Runtimes()
	for i := 0; i < nrt; i++ {
		rt := a.node.Runtime(i)
		rt.Attach[a.sh.id] = newRTState(a, rt)
	}
	a.node.Endpoint().RegisterMR(a.sh.id, a.local)
	a.node.RegisterRoute(a.sh.id, cluster.Route{
		RuntimeOf: func(m *fabric.Message) int {
			return int(m.Chunk % int64(nrt))
		},
		Handle: a.handleMsg,
		// Payload-free commands whose handling depends only on
		// (From, Chunk, Flag, VT) may be destination-coalesced by the Tx
		// thread. Operate-family messages are excluded: they carry an
		// OpID the merge key does not compare.
		Coalescible: func(kind uint8) bool {
			switch kind {
			case msgReadReq, msgWriteReq, msgInvalidate, msgInvAck,
				msgDowngrade, msgRecall, msgOpRecall:
				return true
			}
			return false
		},
	})
	a.node.Cluster().AddMetricsCollector(a.collectMetrics)
}

// ID returns the array's cluster-wide id.
func (a *Array) ID() uint32 { return a.sh.id }

// Len returns the global element count.
func (a *Array) Len() int64 { return a.sh.n }

// ChunkWords returns the chunk size in elements.
func (a *Array) ChunkWords() int64 { return a.sh.chunkWords }

// Chunks returns the number of chunks in the global array.
func (a *Array) Chunks() int64 { return a.sh.nChunks }

// Node returns this handle's node.
func (a *Array) Node() *cluster.Node { return a.node }

// HomeOf returns the node id that homes element i.
func (a *Array) HomeOf(i int64) int { return a.homeOfChunk(i / a.sh.chunkWords) }

// LocalRange returns [lo, hi) — the element range homed on this node.
func (a *Array) LocalRange() (lo, hi int64) {
	v := int64(a.node.ID())
	lo = a.sh.starts[v] * a.sh.chunkWords
	hi = a.sh.starts[v+1] * a.sh.chunkWords
	if hi > a.sh.n {
		hi = a.sh.n
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

func (a *Array) homeOfChunk(ci int64) int {
	s := a.sh.starts
	// Binary search: greatest v with starts[v] <= ci.
	v := sort.Search(len(s), func(i int) bool { return s[i] > ci }) - 1
	if v < 0 || v >= len(s)-1 {
		panic(fmt.Sprintf("core: chunk %d out of range", ci))
	}
	return v
}

func (a *Array) locate(i int64) (ci, off int64) {
	if i < 0 || i >= a.sh.n {
		panic(fmt.Sprintf("core: index %d out of range [0,%d)", i, a.sh.n))
	}
	return i / a.sh.chunkWords, i % a.sh.chunkWords
}

// rtOf returns the runtime goroutine owning chunk ci on this node.
func (a *Array) rtOf(ci int64) *cluster.Runtime {
	return a.node.Runtime(int(ci % int64(a.node.Runtimes())))
}

// RegisterOp collectively registers an associative-commutative operator
// and returns its id (paper §4.3 registerOp). Must be called in the
// same program order on every node.
func (a *Array) RegisterOp(op Op) OpID {
	idAny := a.node.Collective(func() any {
		for {
			cur := a.sh.ops.Load()
			next := make([]Op, len(*cur)+1)
			copy(next, *cur)
			next[len(*cur)] = op
			if a.sh.ops.CompareAndSwap(cur, &next) {
				return OpID(len(next)) // ids start at 1
			}
		}
	})
	return idAny.(OpID)
}

// op returns the registered operator for id.
func (a *Array) op(id OpID) *Op {
	ops := *a.sh.ops.Load()
	if id < 1 || int(id) > len(ops) {
		panic(fmt.Sprintf("core: unregistered operator %d", id))
	}
	return &ops[id-1]
}
