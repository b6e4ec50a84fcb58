package main

import "darray/internal/vtime"

// frozenModel is the cost model every cluster in the benchmark charges
// virtual time with. It is a literal on purpose: bench.Calibrate times
// the host and is never called, and vtime.Default is not consulted, so
// a host-code speed-up moves only the host_* metrics and a protocol
// change (fewer round trips, better batching) moves only the vt_*
// metrics. The network constants are the paper's testbed (ConnectX-4,
// 100 Gbps); the CPU path constants are one calibration of this code
// base, recorded once.
func frozenModel() *vtime.Model {
	return &vtime.Model{
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
