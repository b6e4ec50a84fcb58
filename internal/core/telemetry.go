package core

import (
	"sync/atomic"

	"darray/internal/telemetry"
)

// Transition identifies one edge of the home directory's coherence state
// machine (paper Figure 5 / Table 1). Self-loops that admit another
// participant (a new sharer joining Shared, a new combiner joining
// Operated) are counted as their own edges: they are the protocol's
// sharing-amortization events, and their ratio to full state changes is
// what explains cached-read scaling (Figure 13).
type Transition int

const (
	TransUnsharedToShared Transition = iota
	TransUnsharedToDirty
	TransUnsharedToOperated
	TransSharedToUnshared
	TransSharedToDirty
	TransSharedToOperated
	TransSharedAddSharer
	TransDirtyToShared
	TransDirtyToUnshared
	TransOperatedToUnshared
	TransOperatedAddNode
	NumTransitions
)

var transitionNames = [NumTransitions]string{
	"unshared->shared",
	"unshared->dirty",
	"unshared->operated",
	"shared->unshared",
	"shared->dirty",
	"shared->operated",
	"shared+sharer",
	"dirty->shared",
	"dirty->unshared",
	"operated->unshared",
	"operated+node",
}

// String returns the edge's stable metric name.
func (t Transition) String() string {
	if t < 0 || t >= NumTransitions {
		return "unknown"
	}
	return transitionNames[t]
}

// transition counts one directory state-machine edge. Runs on the home
// runtime goroutine (slow path), so an unconditional atomic add is fine.
func (a *Array) transition(t Transition) {
	a.Metrics.Transitions[t].Add(1)
}

// telOn reports whether fast-path telemetry collection is enabled: one
// atomic load, the only cost instrumentation adds to the lock-free data
// access paths when metrics are off.
func (a *Array) telOn() bool {
	return a.reg != nil && a.reg.Enabled()
}

// KindName maps protocol message kinds to stable names (exported for
// fabric per-kind reports, which treat kinds as opaque numbers).
func KindName(k uint8) string {
	if k >= numKinds {
		return ""
	}
	return kindName(k)
}

// counterMetric builds a single-node counter Metric for collectMetrics.
func counterMetric(name string, node int, v int64) telemetry.Metric {
	per := make([]int64, node+1)
	per[node] = v
	return telemetry.Metric{Name: name, Kind: telemetry.KindCounter, PerNode: per}
}

// collectMetrics contributes this node's protocol counters to cluster
// metrics snapshots. Registered per Array instance at wire() time; the
// owning cluster folds final values into the registry on Close.
func (a *Array) collectMetrics(emit telemetry.Emit) {
	node := a.node.ID()
	m := &a.Metrics
	for _, c := range []struct {
		name string
		v    *atomic.Int64
	}{
		{"core/cache/hits", &m.Hits},
		{"core/cache/misses", &m.Misses},
		{"core/cache/fills", &m.Fills},
		{"core/cache/evictions", &m.Evictions},
		{"core/cache/writebacks", &m.WriteBacks},
		{"core/prefetch/issued", &m.Prefetches},
		{"core/prefetch/hits", &m.PrefetchHits},
		{"core/prefetch/wasted", &m.PrefetchWasted},
		{"core/prefetch/throttled", &m.PrefetchThrottled},
		{"core/cc/backoffs", &m.CCBackoffs},
		{"core/cache/reclaim_sweeps", &m.ReclaimSweeps},
		{"core/cache/reclaim_scanned", &m.ReclaimScanned},
		{"core/cache/delay_stalls", &m.DelayStalls},
		{"core/cache/ref_drain_stalls", &m.RefDrainStalls},
		{"core/pin/fast", &m.PinFast},
		{"core/pin/slow", &m.PinSlow},
		{"core/operate/combines", &m.Combines},
		{"core/operate/flushes", &m.OpFlushes},
		{"core/operate/merges", &m.OpMerges},
		{"core/operate/merges_voluntary", &m.OpMergesVoluntary},
		{"core/operate/merges_recalled", &m.OpMergesRecalled},
		{"core/ship/ops", &m.ShipOps},
		{"core/ship/flips", &m.ShipFlips},
		{"core/ship/bytes_saved", &m.ShipBytesSaved},
		{"core/lock/lease_grants", &m.LeaseGrants},
		{"core/lock/lease_recalls", &m.LeaseRecalls},
		{"core/lock/fills", &m.LockFills},
		{"core/lock/fill_declines", &m.FillDeclines},
		{"core/lock/gate_closes", &m.GateCloses},
		{"core/lock/gate_drains", &m.GateDrains},
		{"core/coherence/invalidations", &m.Invals},
		{"core/coherence/recalls", &m.Recalls},
		{"core/coherence/downgrades", &m.Downgrades},
		{"core/alloc/lease", &m.Leases},
		{"core/alloc/adopt", &m.Adopts},
		{"core/alloc/donate", &m.Donates},
		{"core/alloc/copy", &m.PayloadCopies},
	} {
		emit(counterMetric(c.name, node, c.v.Load()))
	}
	gateHits, leaseHits := a.GateHits()
	emit(counterMetric("core/lock/gate_hits", node, gateHits))
	emit(counterMetric("core/lock/lease_hits", node, leaseHits))
	for t := Transition(0); t < NumTransitions; t++ {
		emit(counterMetric("core/coherence/"+t.String(), node, m.Transitions[t].Load()))
	}
	for _, h := range []struct {
		name string
		h    *telemetry.Histogram
	}{
		{"core/cc/cwnd", &a.ccCwnd},
		{"core/cc/srtt", &a.ccSrtt},
	} {
		d := h.h.Data()
		if d.Count == 0 {
			continue
		}
		per := make([]int64, node+1)
		per[node] = d.Count
		emit(telemetry.Metric{Name: h.name, Kind: telemetry.KindHistogram, PerNode: per, Hist: d})
	}
}
