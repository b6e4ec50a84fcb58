// Package fabric simulates an RDMA network: per-node endpoints (RNICs)
// connected by full-duplex links, two-sided SEND/RECV message delivery
// with per-queue-pair FIFO ordering, one-sided READ/WRITE/CAS verbs
// against registered memory regions, and the cost accounting the paper's
// communication layer relies on (selective signaling, doorbell posts,
// bandwidth serialization on links).
//
// Functionally the fabric is an in-process message switch; temporally it
// charges virtual time (see internal/vtime): every message carries the
// virtual instant it becomes visible at the receiver, computed from the
// sender's ready time, the per-direction link bandwidth resource, and the
// wire latency. One-sided verbs block the caller and advance the caller's
// clock by a full round trip, exactly like a synchronous ibv_post_send +
// completion poll.
//
// When a fault.Plan is configured the wire underneath becomes lossy, and
// the fabric behaves like an RC (reliable-connection) queue pair above
// it: per-pair sequence numbers with go-back-N retransmission hide loss
// from the protocol (charged as virtual-time penalty and counted in
// Retransmits), duplicates are discarded at the receiver, and only an
// exhausted retry budget — a peer unreachable longer than the
// retransmission schedule covers — surfaces as ErrRetryExceeded, exactly
// the contract a real RNIC gives software. See DESIGN.md "Fault model".
package fabric

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"darray/internal/buf"
	"darray/internal/fault"
	"darray/internal/queue"
	"darray/internal/telemetry"
	"darray/internal/vtime"
)

// Completion errors. A real RC queue pair reports these as work
// completion statuses (IBV_WC_RETRY_EXC_ERR, invalid rkey); callers must
// treat the QP as broken rather than retry blindly.
var (
	// ErrRetryExceeded means the retransmission budget ran out — the
	// peer was unreachable for longer than the retry schedule covers.
	ErrRetryExceeded = errors.New("fabric: retry budget exceeded")
	// ErrMRNotFound means a one-sided verb targeted an unregistered
	// memory region (the RDMA analogue of an invalid rkey).
	ErrMRNotFound = errors.New("fabric: memory region not found")
)

// Message is one two-sided SEND. The payload layout (Kind, Chunk, ...)
// belongs to the protocol layers; the fabric only reads From/To/Data
// sizes and the VT stamps.
type Message struct {
	From, To int
	Array    uint32 // which distributed array / data structure instance
	Kind     uint8  // protocol message kind (opaque here)
	Chunk    int64
	OpID     int32
	Seq      uint32
	Idx      int64
	Val      uint64
	Flag     bool
	Data     []uint64 // chunk payload, if any

	// Payload, when non-nil, is the refcounted pool buffer backing Data
	// (the simulated registered MR the payload lives in). The message
	// owns one reference: posting transfers it to the receiver, which
	// either releases it after copying or adopts the buffer outright.
	// Duplicate deliveries on a lossy wire retain an extra reference
	// instead of copying the words. Nil means Data is GC-managed
	// (payload-free messages and foreign protocol layers).
	Payload *buf.Ref

	// Coal marks a destination-coalesced command: the Tx thread merged
	// several adjacent payload-free protocol commands of the same kind to
	// the same peer into one SEND. Chunk carries the first command's
	// chunk; Data carries the remaining chunk indexes. The receiving
	// node's Rx loop fans the message back out per chunk, so the protocol
	// layers never see a coalesced message.
	Coal bool

	// VT is the virtual time at which the message is visible at the
	// receiver. Senders set SendVT (their ready time); Post fills VT.
	VT     int64
	SendVT int64

	// Causal-tracing context (internal/trace); zero means untraced.
	// Trace/PSpan identify the trace and parent span this message
	// belongs to. QueuedVT preserves the producer's ready time — the Tx
	// thread overwrites SendVT with the post-doorbell time, and the
	// receiver needs both ends of the doorbell-queue interval. RetransNs
	// is the share of the delivery latency the lossy wire added (filled
	// by Post); the receiver splits it out as its own trace stage.
	Trace     uint64
	PSpan     uint64
	QueuedVT  int64
	RetransNs int64

	// CoalTC carries the absorbed commands' trace contexts alongside a
	// coalesced message, as flat [trace, pspan, queuedVT] triples
	// parallel to Data's chunk indexes (shorter-than-Data means the tail
	// is untraced). Like the header context above it is metadata the
	// simulation threads out of band — it does not count toward Bytes(),
	// the way a real fabric carries trace IDs in fixed header space.
	CoalTC []uint64

	// wireSeq is the per-queue-pair sequence number stamped by Post and
	// verified by Poll: duplicates are discarded, gaps panic (the RC
	// layer must never reorder or lose an acknowledged SEND).
	wireSeq uint32
}

const msgHeaderBytes = 64 // wire size of a payload-free protocol message

// Bytes returns the message's wire size.
func (m *Message) Bytes() int { return msgHeaderBytes + 8*len(m.Data) }

// msgPool recycles Message structs across the whole process. Only
// pooled fabrics (Config.Pooled, which every cluster sets) free to it.
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// NewMessage returns a zeroed Message from the process-wide pool. The
// caller owns it until it is posted; the consumer frees it with
// FreeMessage after releasing or adopting any Payload.
func NewMessage() *Message { return msgPool.Get().(*Message) }

// FreeMessage recycles m. The caller must have released (or taken over)
// m.Payload first and must not touch m afterwards.
func FreeMessage(m *Message) {
	*m = Message{}
	msgPool.Put(m)
}

// MaxMsgKinds bounds the per-kind message counters; protocol kinds are
// small consecutive integers (core uses 15), so 32 leaves headroom.
const MaxMsgKinds = 32

// Counters aggregates per-endpoint traffic statistics: aggregate
// message/byte totals, per-message-kind counts, and per-verb one-sided
// operation counts.
type Counters struct {
	MsgsSent     atomic.Int64
	BytesSent    atomic.Int64
	OneSidedOps  atomic.Int64
	OneSidedByte atomic.Int64

	// One-sided verbs, by type.
	Reads  atomic.Int64
	Writes atomic.Int64
	CASs   atomic.Int64

	// RC recovery over the lossy wire (all zero without a fault plan).
	Retransmits    atomic.Int64 // extra transmissions hidden from the protocol
	Timeouts       atomic.Int64 // retry budgets exhausted (surfaced as errors)
	FaultsInjected atomic.Int64 // fault events the plan injected on our sends
	DupsSuppressed atomic.Int64 // duplicate deliveries discarded at this receiver

	perKind [MaxMsgKinds]atomic.Int64

	// retries[k] is the distribution of transmission attempts per
	// message of kind k (1 = clean); the last slot covers one-sided
	// verbs. Only populated when a fault plan is active.
	retries [MaxMsgKinds + 1]telemetry.Histogram
}

// RetryHist returns the attempts-per-message histogram for protocol
// kind k; pass fault.KindOneSided (or any kind >= MaxMsgKinds) for the
// one-sided verb slot.
func (c *Counters) RetryHist(k uint8) *telemetry.Histogram {
	if int(k) >= MaxMsgKinds {
		return &c.retries[MaxMsgKinds]
	}
	return &c.retries[k]
}

// KindCount returns how many messages of protocol kind k were sent.
func (c *Counters) KindCount(k uint8) int64 {
	if int(k) >= MaxMsgKinds {
		return 0
	}
	return c.perKind[k].Load()
}

// Report renders the counters human-readably. namer maps protocol
// message kinds to names (nil falls back to "kind-N"); the fabric treats
// kinds as opaque, so the protocol layer supplies the vocabulary.
func (c *Counters) Report(namer func(uint8) string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "msgs=%d bytes=%d one-sided: ops=%d (read=%d write=%d cas=%d) bytes=%d",
		c.MsgsSent.Load(), c.BytesSent.Load(), c.OneSidedOps.Load(),
		c.Reads.Load(), c.Writes.Load(), c.CASs.Load(), c.OneSidedByte.Load())
	if rt, to, fi := c.Retransmits.Load(), c.Timeouts.Load(), c.FaultsInjected.Load(); rt|to|fi != 0 {
		fmt.Fprintf(&b, "\n  faults: injected=%d retransmits=%d timeouts=%d dups_suppressed=%d",
			fi, rt, to, c.DupsSuppressed.Load())
	}
	first := true
	for k := 0; k < MaxMsgKinds; k++ {
		n := c.perKind[k].Load()
		if n == 0 {
			continue
		}
		if first {
			b.WriteString("\n  per-kind:")
			first = false
		}
		name := ""
		if namer != nil {
			name = namer(uint8(k))
		}
		if name == "" {
			name = fmt.Sprintf("kind-%d", k)
		}
		fmt.Fprintf(&b, " %s=%d", name, n)
	}
	return b.String()
}

// Config describes a fabric instance.
type Config struct {
	Nodes  int
	Model  *vtime.Model // nil disables virtual-time charging
	Faults *fault.Plan  // nil means a perfect wire (no injection, zero overhead)

	// Pooled arms the zero-copy disciplines: receive queues recycle
	// their link nodes, duplicate deliveries share the payload buffer by
	// refcount instead of copying, and discarded duplicates are returned
	// to the message pool. Every cluster sets it; the fabric's own unit
	// tests, which allocate their messages, leave it off.
	Pooled bool
}

// Fabric connects Nodes endpoints.
type Fabric struct {
	cfg Config
	eps []*Endpoint
}

// New builds a fabric with cfg.Nodes endpoints.
func New(cfg Config) *Fabric {
	if cfg.Nodes <= 0 {
		panic("fabric: Nodes must be positive")
	}
	f := &Fabric{cfg: cfg}
	newRx := queue.NewMPSC[*Message]
	if cfg.Pooled {
		newRx = queue.NewMPSCPooled[*Message]
	}
	f.eps = make([]*Endpoint, cfg.Nodes)
	for i := range f.eps {
		f.eps[i] = &Endpoint{
			fab:       f,
			id:        i,
			rx:        newRx(),
			tx:        make([]vtime.Resource, cfg.Nodes),
			txSeq:     make([]uint32, cfg.Nodes),
			txLastVT:  make([]int64, cfg.Nodes),
			rxSeq:     make([]uint32, cfg.Nodes),
			linkBytes: make([]telemetry.Histogram, cfg.Nodes),
			mrs:       make(map[uint32][]uint64),
			stop:      make(chan struct{}),
		}
	}
	return f
}

// Endpoint returns node id's NIC.
func (f *Fabric) Endpoint(id int) *Endpoint { return f.eps[id] }

// Nodes returns the endpoint count.
func (f *Fabric) Nodes() int { return f.cfg.Nodes }

// Model returns the fabric's virtual-time model (may be nil).
func (f *Fabric) Model() *vtime.Model { return f.cfg.Model }

// Close releases all endpoints, waking any parked receivers.
func (f *Fabric) Close() {
	for _, ep := range f.eps {
		ep.closeOnce.Do(func() { close(ep.stop) })
	}
}

// Endpoint is one node's simulated RNIC.
type Endpoint struct {
	fab *Fabric
	id  int

	rx *queue.MPSC[*Message]
	tx []vtime.Resource // per-destination egress bandwidth resource

	// Per-queue-pair sequence state. txSeq/txLastVT[dst] are written
	// only by this node's single Tx goroutine (the Post contract);
	// rxSeq[src] only by the single Poll consumer.
	txSeq    []uint32
	txLastVT []int64 // last arrival VT per destination (in-order clamp)
	rxSeq    []uint32

	// postRetrans counts posts since the last TakeRetransSignal whose
	// delivery needed go-back-N recovery. Tx-goroutine-only, like txSeq:
	// the adaptive doorbell budget reads it between bursts.
	postRetrans int64

	// linkBytes[dst] is the byte-size distribution of messages sent on
	// the (this endpoint -> dst) link.
	linkBytes []telemetry.Histogram

	mrMu sync.RWMutex
	mrs  map[uint32][]uint64 // registered memory regions, by key

	stats     Counters
	stop      chan struct{}
	closeOnce sync.Once
}

// ID returns the node id of this endpoint.
func (e *Endpoint) ID() int { return e.id }

// TakeRetransSignal reports whether any post since the previous call
// needed go-back-N recovery, and clears the signal. Like Post, it must
// only be called from the node's single Tx goroutine.
func (e *Endpoint) TakeRetransSignal() bool {
	hit := e.postRetrans > 0
	e.postRetrans = 0
	return hit
}

// Stats exposes the endpoint's traffic counters.
func (e *Endpoint) Stats() *Counters { return &e.stats }

// LinkBytes exposes the byte histogram of the (this endpoint -> dst)
// link.
func (e *Endpoint) LinkBytes(dst int) *telemetry.Histogram { return &e.linkBytes[dst] }

// RegisterMR registers a memory region for one-sided access under key.
// Keys are global per node (array id, typically).
func (e *Endpoint) RegisterMR(key uint32, words []uint64) {
	e.mrMu.Lock()
	defer e.mrMu.Unlock()
	e.mrs[key] = words
}

// DeregisterMR removes a region.
func (e *Endpoint) DeregisterMR(key uint32) {
	e.mrMu.Lock()
	defer e.mrMu.Unlock()
	delete(e.mrs, key)
}

func (e *Endpoint) region(key uint32) ([]uint64, error) {
	e.mrMu.RLock()
	defer e.mrMu.RUnlock()
	r, ok := e.mrs[key]
	if !ok {
		return nil, fmt.Errorf("%w: node %d has no MR %d", ErrMRNotFound, e.id, key)
	}
	return r, nil
}

// Post transmits m as a two-sided SEND. m.SendVT must hold the sender's
// virtual ready time (0 when no model). Delivery preserves per-pair FIFO
// because each node posts from a single Tx goroutine.
//
// With a fault plan configured, loss is absorbed by retransmission
// (charged into m.VT and the link's bandwidth resource, go-back-N
// style); Post fails with ErrRetryExceeded only when the retry budget
// runs out, in which case the message was not delivered.
func (e *Endpoint) Post(m *Message) error {
	m.From = e.id
	dst := e.fab.eps[m.To]
	mdl := e.fab.cfg.Model
	if mdl != nil {
		_, end := e.tx[m.To].Acquire(m.SendVT, mdl.XferCost(m.Bytes()))
		m.VT = end + mdl.Wire
	}
	var dup bool
	if fp := e.fab.cfg.Faults; fp != nil {
		faultFree := m.VT
		var err error
		if dup, err = e.faultWire(fp, m, mdl); err != nil {
			return err
		}
		// Everything faultWire folded into the delivery time —
		// go-back-N resends, stall windows, in-order clamping — is
		// retransmission-layer delay for latency attribution.
		m.RetransNs = m.VT - faultFree
		if m.RetransNs > 0 {
			e.postRetrans++
		}
	}
	e.stats.MsgsSent.Add(1)
	e.stats.BytesSent.Add(int64(m.Bytes()))
	if int(m.Kind) < MaxMsgKinds {
		e.stats.perKind[m.Kind].Add(1)
	}
	e.linkBytes[m.To].Observe(int64(m.Bytes()))
	m.wireSeq = e.txSeq[m.To]
	e.txSeq[m.To]++
	// The duplicate copy must be taken (and the payload retained) before
	// m is pushed: a pooled receiver may consume, release, and recycle m
	// the instant it is visible.
	var dupMsg *Message
	if dup {
		// The wire delivered the packet twice; the receiver's QP state
		// discards the copy by sequence number (see accept).
		if e.fab.cfg.Pooled {
			dupMsg = NewMessage()
			*dupMsg = *m
			m.Payload.Retain()
		} else {
			d := *m
			dupMsg = &d
		}
	}
	dst.rx.Push(m)
	if dupMsg != nil {
		dst.rx.Push(dupMsg)
	}
	return nil
}

// faultWire runs m through the fault plan's RC recovery loop: charges
// retransmission penalties into m.VT and the egress link (later traffic
// queues behind go-back-N resends), applies receiver stall windows, and
// reports whether the wire duplicated the delivery.
func (e *Endpoint) faultWire(fp *fault.Plan, m *Message, mdl *vtime.Model) (dup bool, err error) {
	ref := m.VT
	if mdl == nil {
		ref = m.SendVT
	}
	v := fp.Wire(e.id, m.To, m.Kind, ref)
	if v.Faults > 0 {
		e.stats.FaultsInjected.Add(v.Faults)
	}
	e.stats.RetryHist(m.Kind).Observe(int64(v.Attempts))
	if !v.Delivered {
		e.stats.Timeouts.Add(1)
		return false, fmt.Errorf("%w: SEND kind %d on link %d->%d after %d attempts",
			ErrRetryExceeded, m.Kind, e.id, m.To, v.Attempts)
	}
	if v.Attempts > 1 {
		e.stats.Retransmits.Add(int64(v.Attempts - 1))
		if mdl != nil {
			// Go-back-N: the resends re-occupy the link, so later
			// messages on this queue pair serialize behind them.
			e.tx[m.To].Acquire(m.VT, v.ExtraNs)
		}
	}
	m.VT += v.ExtraNs
	if s := fp.StallUntil(m.To, m.VT); s > m.VT {
		m.VT = s
	}
	// Go-back-N delivers in order: a packet cannot become visible before
	// its predecessor on the same queue pair, whatever jitter it drew.
	if m.VT < e.txLastVT[m.To] {
		m.VT = e.txLastVT[m.To]
	}
	e.txLastVT[m.To] = m.VT
	return v.Duplicated, nil
}

// accept runs the receiver half of the QP sequence check: true for the
// next in-order message, false for a duplicate (discarded, counted).
// A gap means the RC layer lost an acknowledged SEND — a fabric bug —
// and panics.
func (e *Endpoint) accept(m *Message) bool {
	d := int32(m.wireSeq - e.rxSeq[m.From])
	switch {
	case d == 0:
		e.rxSeq[m.From]++
		return true
	case d < 0:
		e.stats.DupsSuppressed.Add(1)
		return false
	default:
		panic(fmt.Sprintf("fabric: QP %d->%d sequence gap: got #%d, want #%d",
			m.From, e.id, m.wireSeq, e.rxSeq[m.From]))
	}
}

// discard drops a suppressed duplicate, returning its payload reference
// and Message struct to the pools when the fabric is pooled.
func (e *Endpoint) discard(m *Message) {
	if e.fab.cfg.Pooled {
		m.Payload.Release()
		FreeMessage(m)
	}
}

// Poll retrieves one received message without blocking. Duplicate
// deliveries from a lossy wire are discarded here, invisible to callers.
func (e *Endpoint) Poll() (*Message, bool) {
	for {
		m, ok := e.rx.Pop()
		if !ok {
			return nil, false
		}
		if e.accept(m) {
			return m, true
		}
		e.discard(m)
	}
}

// PollWait blocks until a message arrives or the fabric is closed.
func (e *Endpoint) PollWait() (*Message, bool) {
	for {
		m, ok := e.rx.PopWait(e.stop)
		if !ok {
			return nil, false
		}
		if e.accept(m) {
			return m, true
		}
		e.discard(m)
	}
}

// DrainRx empties the receive queue, releasing pooled payload
// references still in flight. It bypasses the QP sequence check, so it
// must only be called after the endpoint's Rx consumer has stopped —
// it is teardown plumbing for the pool leak check, not a receive path.
func (e *Endpoint) DrainRx() {
	for {
		m, ok := e.rx.Pop()
		if !ok {
			return
		}
		if e.fab.cfg.Pooled {
			m.Payload.Release()
			FreeMessage(m)
		}
	}
}

// Done exposes the endpoint's close channel (for Rx loops that select).
func (e *Endpoint) Done() <-chan struct{} { return e.stop }

// roundTrip charges clock for a one-sided verb moving n payload bytes and
// returns after the virtual round trip completes. With a fault plan, the
// verb retries through loss within its budget (penalty charged to the
// caller's clock) and fails with ErrRetryExceeded past it.
func (e *Endpoint) roundTrip(clock *vtime.Clock, to int, bytes int) error {
	e.stats.OneSidedOps.Add(1)
	e.stats.OneSidedByte.Add(int64(bytes))
	mdl := e.fab.cfg.Model
	if mdl != nil && clock != nil {
		_, end := e.tx[to].Acquire(clock.Now()+mdl.SendCost(), mdl.XferCost(bytes))
		clock.AdvanceTo(end + mdl.RTT8 + mdl.PollCQ)
	}
	fp := e.fab.cfg.Faults
	if fp == nil {
		return nil
	}
	var ref int64
	if clock != nil {
		ref = clock.Now()
	}
	v := fp.Wire(e.id, to, fault.KindOneSided, ref)
	if v.Faults > 0 {
		e.stats.FaultsInjected.Add(v.Faults)
	}
	e.stats.RetryHist(fault.KindOneSided).Observe(int64(v.Attempts))
	if !v.Delivered {
		e.stats.Timeouts.Add(1)
		return fmt.Errorf("%w: one-sided verb to node %d after %d attempts",
			ErrRetryExceeded, to, v.Attempts)
	}
	if v.Attempts > 1 {
		e.stats.Retransmits.Add(int64(v.Attempts - 1))
	}
	if clock != nil {
		clock.Advance(v.ExtraNs)
		clock.AdvanceTo(fp.StallUntil(to, clock.Now()))
	}
	return nil
}

// ReadWord performs a one-sided 8-byte READ from (node to, region key,
// word offset off).
func (e *Endpoint) ReadWord(clock *vtime.Clock, to int, key uint32, off int64) (uint64, error) {
	e.stats.Reads.Add(1)
	if err := e.roundTrip(clock, to, 8); err != nil {
		return 0, err
	}
	r, err := e.fab.eps[to].region(key)
	if err != nil {
		return 0, err
	}
	return atomic.LoadUint64(&r[off]), nil
}

// WriteWord performs a one-sided 8-byte WRITE.
func (e *Endpoint) WriteWord(clock *vtime.Clock, to int, key uint32, off int64, v uint64) error {
	e.stats.Writes.Add(1)
	if err := e.roundTrip(clock, to, 8); err != nil {
		return err
	}
	r, err := e.fab.eps[to].region(key)
	if err != nil {
		return err
	}
	atomic.StoreUint64(&r[off], v)
	return nil
}

// CompareAndSwap performs a one-sided atomic CAS (used by baselines for
// remote read-modify-write without a coherence protocol).
func (e *Endpoint) CompareAndSwap(clock *vtime.Clock, to int, key uint32, off int64, old, new uint64) (bool, error) {
	e.stats.CASs.Add(1)
	if err := e.roundTrip(clock, to, 8); err != nil {
		return false, err
	}
	r, err := e.fab.eps[to].region(key)
	if err != nil {
		return false, err
	}
	return atomic.CompareAndSwapUint64(&r[off], old, new), nil
}

// ReadWords performs a one-sided READ of n words into dst.
func (e *Endpoint) ReadWords(clock *vtime.Clock, to int, key uint32, off int64, dst []uint64) error {
	e.stats.Reads.Add(1)
	if err := e.roundTrip(clock, to, 8*len(dst)); err != nil {
		return err
	}
	r, err := e.fab.eps[to].region(key)
	if err != nil {
		return err
	}
	for i := range dst {
		dst[i] = atomic.LoadUint64(&r[off+int64(i)])
	}
	return nil
}

// WriteWords performs a one-sided WRITE of src.
func (e *Endpoint) WriteWords(clock *vtime.Clock, to int, key uint32, off int64, src []uint64) error {
	e.stats.Writes.Add(1)
	if err := e.roundTrip(clock, to, 8*len(src)); err != nil {
		return err
	}
	r, err := e.fab.eps[to].region(key)
	if err != nil {
		return err
	}
	for i, v := range src {
		atomic.StoreUint64(&r[off+int64(i)], v)
	}
	return nil
}
