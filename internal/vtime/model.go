package vtime

// Model holds the cost constants (all nanoseconds unless noted) used to
// charge virtual time for events in the simulated cluster. Network and
// memory constants are the paper's testbed hardware (ConnectX-4
// 100 Gbps InfiniBand, 2 us 8-byte one-sided round trip, 128 GB/s DRAM).
// CPU path costs (fast-path hit, lock-based access, ...) were timed once
// from the real implementation (internal/bench's Calibrate) and recorded
// in Default, so the model's relative CPU overheads are properties of
// this code base and every run charges the same ones.
//
// A nil *Model disables charging entirely; the hot paths test for that
// with a single branch, which keeps `go test -bench` wall-clock numbers
// meaningful as host measurements of the real code.
type Model struct {
	// Network.
	Wire         int64   // one-way wire+switch latency for a minimal message
	RTT8         int64   // one-sided 8-byte READ round trip (BCL's unit cost)
	BytesPerNs   float64 // NIC streaming bandwidth (100 Gbps = 12.5 B/ns)
	PostSend     int64   // CPU cost to post a work request (doorbell MMIO)
	PollCQ       int64   // CPU cost to reap a signaled completion
	SignalPeriod int64   // selective signaling period r (1 = always signal)
	WQE          int64   // CPU cost to append one work request to an already-rung doorbell

	// Node-side service times.
	RPCService  int64   // runtime-thread service time per protocol message
	LockService int64   // lock-table operation service time at the home node
	MemBPerNs   float64 // DRAM copy bandwidth for chunk fills/writebacks

	// CPU path costs.
	NativeAccess int64 // builtin []uint64 access (baseline for Fig 1)
	GeminiEdge   int64 // Gemini push: owner lookup + dense-buffer combine
	GetHit       int64 // DArray fast-path Get on a resident chunk
	SetHit       int64 // DArray fast-path Set
	ApplyHit     int64 // DArray fast-path Apply (CAS combine)
	PinAccess    int64 // DArray pinned Get/Set, or an operand folded before a pinned Apply (no atomics)
	GamAccess    int64 // GAM lock-based access path (mutex + cache lookup)
	BclLocal     int64 // BCL local-partition access
	SlowFixed    int64 // fixed CPU portion of a slow-path miss (enqueue+wake)
}

// Default returns the recorded profile: the paper-testbed network and
// memory constants plus one calibration of this code base's CPU paths.
func Default() *Model {
	return &Model{
		Wire:         900,
		RTT8:         2000,
		BytesPerNs:   12.5,
		PostSend:     80,
		PollCQ:       120,
		SignalPeriod: 32,
		WQE:          20,
		RPCService:   250,
		LockService:  120,
		MemBPerNs:    8,

		NativeAccess: 1,
		GeminiEdge:   9,
		GetHit:       26,
		SetHit:       27,
		ApplyHit:     35,
		PinAccess:    4,
		GamAccess:    60,
		BclLocal:     5,
		SlowFixed:    104,
	}
}

// XferCost returns the virtual time to move size bytes across the NIC in
// one direction, excluding the fixed wire latency.
func (m *Model) XferCost(size int) int64 {
	if m.BytesPerNs <= 0 {
		return 0
	}
	return int64(float64(size) / m.BytesPerNs)
}

// CopyCost returns the virtual time for a local memory copy of size bytes.
func (m *Model) CopyCost(size int) int64 {
	if m.MemBPerNs <= 0 {
		return 0
	}
	return int64(float64(size) / m.MemBPerNs)
}

// SendCost returns the sender-side CPU cost for one work request under
// selective signaling: every request pays the doorbell, and one in every
// SignalPeriod requests pays a completion poll.
func (m *Model) SendCost() int64 {
	p := m.SignalPeriod
	if p < 1 {
		p = 1
	}
	return m.PostSend + m.PollCQ/p
}

// ChainCost returns the sender-side CPU cost of one work request chained
// onto an already-rung doorbell: the WQE is linked into the burst the Tx
// thread is posting, so the MMIO doorbell write is not paid again; only
// the WQE build and the selective-signaling completion share remain.
func (m *Model) ChainCost() int64 {
	p := m.SignalPeriod
	if p < 1 {
		p = 1
	}
	return m.WQE + m.PollCQ/p
}

// PostCost returns the cost of the i-th work request of a doorbell
// burst: the leader rings the doorbell (SendCost), followers chain
// (ChainCost). A burst of one is exactly the unbatched SendCost.
func (m *Model) PostCost(leader bool) int64 {
	if leader {
		return m.SendCost()
	}
	return m.ChainCost()
}
