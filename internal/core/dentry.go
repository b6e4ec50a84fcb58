package core

import (
	"runtime"
	"sync/atomic"

	"darray/internal/buf"
	"darray/internal/cluster"
	"darray/internal/trace"
)

// Local access-permission states, stored in the low bits of dentry.state.
// For Operated, the active operator id is packed into the high bits so
// the Apply fast path reads permission and operator with one atomic load.
const (
	permInvalid  uint32 = 0
	permRead     uint32 = 1
	permRW       uint32 = 2
	permOperated uint32 = 3

	permMask uint32 = 0x3
	opShift         = 8
)

func packState(perm uint32, op OpID) uint32 { return perm | uint32(op)<<opShift }
func statePerm(s uint32) uint32             { return s & permMask }
func stateOp(s uint32) OpID                 { return OpID(s >> opShift) }

// Home-directory states (paper Table 1), meaningful only at the chunk's
// home node and only touched by its owning runtime goroutine.
const (
	dirUnshared uint8 = iota
	dirShared
	dirDirty
	dirOperated
)

// What a slow-path request needs. wantShip is a shipped Operate: the
// home applies the operand(s) against the authoritative backing instead
// of granting the requester any permission, so it never appears in a
// cache-side issueRequest and never pins.
const (
	wantRead uint8 = iota
	wantWrite
	wantOperate
	wantPinRead
	wantPinWrite
	wantPinOperate
	wantShip
)

func wantPerm(w uint8) uint32 {
	switch w {
	case wantRead, wantPinRead:
		return permRead
	case wantWrite, wantPinWrite:
		return permRW
	default:
		return permOperated
	}
}

func isPin(w uint8) bool { return w >= wantPinRead && w <= wantPinOperate }

// baseWant maps pin variants to their underlying need; the directory
// state machine only distinguishes read/write/operate, pin-ness matters
// solely at completion time (the runtime takes the reference).
func baseWant(w uint8) uint8 {
	switch w {
	case wantPinRead:
		return wantRead
	case wantPinWrite:
		return wantWrite
	case wantPinOperate:
		return wantOperate
	}
	return w
}

// satisfies reports whether local state s fulfils want w with operator op.
// RW satisfies everything on the home node (an Unshared chunk may be
// read, written, and operated directly).
func satisfies(s uint32, w uint8, op OpID) bool {
	p := statePerm(s)
	switch wantPerm(w) {
	case permRead:
		return p == permRead || p == permRW
	case permRW:
		return p == permRW
	default:
		return p == permRW || (p == permOperated && stateOp(s) == op)
	}
}

// waiter is one slow-path request from an application thread, issued
// by request; its completion goes to tok (nil only for the asynchronous
// lock-table releases, which have none).
type waiter struct {
	ctx  *cluster.Ctx
	tok  *cluster.Token
	want uint8
	op   OpID
	vt   int64 // requester's virtual time at submission

	// tc is the causal-trace chain of the op this waiter blocks (zero
	// when untraced). linked marks the waiter whose chain rides an
	// outbound protocol request: its wait is decomposed by the
	// transaction's own spans, so respond skips the catch-all
	// chunk-wait span it emits for piggybacked and deferred waiters.
	tc     trace.Ctx
	linked bool

	// src, when non-nil, is the caller's source for a whole-chunk
	// SetRange: every word of the chunk will be overwritten with it, so
	// a request issued for this waiter asks the home for a payload-free
	// write grant and the runtime installs src itself (setting filled).
	// The slice belongs to the blocked caller; the runtime only reads it.
	src    []uint64
	filled bool

	// idx is the element a lock-table request (want >= wantRLock, see
	// lock.go) is about; vt is then its request or release time. For a
	// shipped op (wantShip) idx is the offset in the chunk, and the
	// operands are val or, for a batch, the leased words pay holds (the
	// msgShipOp takes them over).
	idx int64
	val uint64
	pay *buf.Ref

	// run is the waiter's local-request closure (handleLocal, or
	// handleLockLocal for a lock-table request, or shipRequest for a
	// shipped op, on a and d), built once and kept across recycling so
	// submitting a pooled waiter allocates nothing.
	a   *Array
	d   *dentry
	run func(rt *cluster.Runtime)
}

// dentry is one directory entry: the per-node metadata for one global
// chunk. The three atomic fields implement the lock-free data access
// path of paper Figure 4/5; everything below them is owned by the one
// runtime goroutine responsible for this chunk on this node.
type dentry struct {
	state  atomic.Uint32
	delay  atomic.Bool
	refcnt atomic.Int64

	// pf marks an outstanding (or unconsumed) speculative fill: set when
	// a prefetch request is issued, cleared by the first demand access
	// (a prefetch hit) or by eviction/invalidation (a wasted prefetch).
	pf atomic.Bool

	ci   int64    // this dentry's global chunk index
	data []uint64 // resident words: home subarray slice or cache line

	// Runtime-owned (single runtime goroutine per chunk per node).
	busy    bool                                               // a protocol transition (or eviction) is in flight
	pending bool                                               // cache side: a request to home is outstanding
	tvt     int64                                              // virtual time the transition has reached
	retrans int64                                              // go-back-N delay of the grant being installed (set around completeWaiters)
	waiters []*waiter                                          // local slow-path waiters
	defrd   []homeReq                                          // requests deferred while busy
	line    *cacheLine                                         // backing cache line (nil at home / not resident)
	onWB    func(rt *cluster.Runtime, data []uint64, vt int64) // recall continuation
	onAcks  func(rt *cluster.Runtime)                          // invalidation-ack continuation
	acks    int
	opAcks  int
	onOpAll func(rt *cluster.Runtime) // operand-recall continuation

	// tctx is the causal-trace chain of the directory transaction in
	// flight (home side; zero when the requester was untraced), and
	// fanVT the virtual time its invalidation/op-recall fan-out began —
	// together they let the ack counters emit one fanout span covering
	// the whole multicast wait.
	tctx  trace.Ctx
	fanVT int64

	// Home-directory fields (valid only at the home node).
	dstate  uint8
	sharers uint64 // bitmask of non-home nodes with a Shared copy
	owner   int32  // node holding the chunk Dirty (when dstate==dirDirty)
	opID    OpID   // active operator (when dstate==dirOperated)
	opNodes uint64 // bitmask of non-home nodes combining operands

	// obs is the home's observation record for this chunk (runtime-owned,
	// like the directory fields above).
	obs chunkObs

	// gates holds one reader gate per element of the chunk (lock.go): the
	// lock-free entrance to the element locks, as the triple above is to
	// the data. Nil until the owning runtime first opens one; published
	// once and never replaced.
	gates atomic.Pointer[[]gate]

	// Function-shipping state on the cache side. shipQ is the FIFO of
	// in-flight shipped ops — per-(pair,chunk) ordering matches each
	// msgShipReply to the head waiter. ship is the last mode hint from
	// home (auto mode only), read on the Apply miss path.
	shipQ []*waiter
	ship  atomic.Bool
}

// enter takes a fast-path reference on d: announce (refcnt++), then
// validate (delay still clear). Every lock-free entry point goes through
// it before it loads state. The re-load after the announce is what
// closes the race with a revocation: the runtime raises delay and then
// reads refcnt, so of the two seq-cst pairs at least one side sees the
// other — either this thread sees delay raised and backs its reference
// out, or its reference was counted before the runtime's zero check and
// the revocation waits for it (PROTOCOL.md "The fast path and the drain
// rule"). The first load keeps parked threads off refcnt, so they cannot
// hold the runtime's drain check above zero. A false return holds no
// reference; callers that must get in call awaitDelay and retry.
func (d *dentry) enter() bool {
	if d.delay.Load() {
		return false
	}
	d.refcnt.Add(1)
	if d.delay.Load() {
		d.refcnt.Add(-1)
		return false
	}
	return true
}

// awaitDelay parks the calling application thread until the runtime
// lowers d's delay flag.
func (a *Array) awaitDelay(d *dentry) {
	if a.telOn() {
		a.Metrics.DelayStalls.Add(1)
	}
	for d.delay.Load() {
		runtime.Gosched()
	}
}

// chunkObs is what the home has seen of one chunk's traffic. It outlives
// transactions and idle periods (directory and lock-table entries do
// not), so the policies that place work — ship an Operate or cache it,
// lease a read lock or keep it home — decide from the chunk's history
// rather than from a knob.
type chunkObs struct {
	ship shipEstimator // Operate contention: cached vs shipped (ship.go)
	lock lockObs       // lock read/write mix: reader leases (lock.go)
}
