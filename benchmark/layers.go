package main

import (
	"darray/internal/telemetry"
	"darray/internal/trace"
)

// workloadLayerMetrics fills the [W] and [T] per-layer metrics of a
// traced measurement from outside the program: the telemetry delta over
// the measured reps, the benchmark's boundary spans, and the program
// tracer's spans. A counter the program no longer exports stays
// missing; it never crashes the run.
func workloadLayerMetrics(out metrics, m *measurement, delta telemetry.Snapshot, sum *spanSummary, spans []trace.Span) {
	ops := float64(m.ops())
	// counter is the cluster-wide delta of a telemetry counter, or
	// missing when the program does not export it.
	counter := func(name string) float64 {
		mt, ok := delta.Get(name)
		if !ok {
			return missing
		}
		return float64(mt.Total())
	}
	perOp := func(name string) float64 { return counter(name) / ops }
	// sparse reads a fabric/ or buf/ counter. The cluster emits those
	// only when non-zero, so absent reads as 0 (a renamed one cannot be
	// told from a quiet one).
	sparse := func(name string) float64 { return float64(delta.Total(name)) }

	hits, misses := sparse("buf/pool/hit"), sparse("buf/pool/miss")
	out["buf.pool_hit_ratio"] = ratio(hits, hits+misses)

	msgs := sparse("fabric/msgs_sent")
	out["fabric.msgs_per_op"] = msgs / ops
	out["fabric.bytes_per_op"] = sparse("fabric/bytes_sent") / ops
	out["fabric.coalesced_per_msg"] = ratio(sparse("fabric/coalesced_cmds"), msgs)
	out["fabric.retransmits"] = sparse("fabric/retransmits")
	if h, ok := delta.Get("fabric/doorbell_batch"); ok && h.Hist != nil {
		out["fabric.doorbell_batch_mean"] = h.Hist.Mean()
	}

	if h, ok := delta.Get("core/cc/cwnd"); ok && h.Hist != nil {
		out["cc.cwnd_p50"] = histMedianBound(h.Hist)
	}
	out["cc.backoffs"] = counter("core/cc/backoffs")

	ch, cm := counter("core/cache/hits"), counter("core/cache/misses")
	out["core.cache.hit_ratio"] = ratio(ch, ch+cm)
	out["core.fast.delay_stalls_per_mop"] = perOp("core/cache/delay_stalls") * 1e6
	out["core.slow.evictions_per_miss"] = ratio(counter("core/cache/evictions"), cm)
	out["core.slow.writebacks_per_op"] = perOp("core/cache/writebacks")
	out["core.slow.invalidations_per_op"] = perOp("core/coherence/invalidations")
	out["core.slow.recalls_per_op"] = perOp("core/coherence/recalls")
	out["core.slow.downgrades_per_op"] = perOp("core/coherence/downgrades")
	out["core.slow.ref_drain_stalls"] = counter("core/cache/ref_drain_stalls")
	issued := counter("core/prefetch/issued")
	out["core.prefetch.useful_ratio"] = ratio(counter("core/prefetch/hits"), issued)
	out["core.prefetch.wasted_ratio"] = ratio(counter("core/prefetch/wasted"), issued)

	out["core.operate.combines_per_op"] = perOp("core/operate/combines")
	out["core.ship.ops"] = counter("core/ship/ops")
	out["core.ship.flips"] = counter("core/ship/flips")

	var hostNs, vtNs int64
	for i := range m.repHostNs {
		hostNs += m.repHostNs[i]
		vtNs += m.repVtNs[i]
	}
	out["vtime.host_ns_per_vt_us"] = ratio(float64(hostNs), float64(vtNs)/1e3)

	// Workload-specific layers, from the benchmark's boundary spans.
	if sum.kvOps > 0 {
		out["kvs.get_host_us_p50"] = sum.p50us(spKvsGet, false)
		out["kvs.put_host_us_p50"] = sum.p50us(spKvsPut, false)
		out["kvs.get_vt_us_p50"] = sum.p50us(spKvsGet, true)
		out["kvs.put_vt_us_p50"] = sum.p50us(spKvsPut, true)
		out["kvs.self_share_host"] = 1 - ratio(float64(sum.kvChildHost), float64(sum.kvHost))
		out["kvs.core_calls_per_op"] = ratio(float64(sum.kvCalls), float64(sum.kvOps))
		out["core.lock.host_share_of_kv_op"] = ratio(float64(sum.kvLockHost), float64(sum.kvHost))
		out["core.lock.vt_share_of_kv_op"] = ratio(float64(sum.kvLockVt), float64(sum.kvVt))
	}
	if m.b.rangeChunks > 0 {
		out["core.bulk.getrange_host_us_p50"] = sum.p50us(spCoreGetRange, false)
		out["core.bulk.setrange_host_us_p50"] = sum.p50us(spCoreSetRange, false)
		out["core.bulk.getrange_vt_us_p50"] = sum.p50us(spCoreGetRange, true)
		out["core.bulk.setrange_vt_us_p50"] = sum.p50us(spCoreSetRange, true)
		out["core.bulk.fills_per_chunk"] = counter("core/cache/fills") / float64(int64(m.reps)*m.b.rangeChunks)
	}
	if it := float64(m.reps * m.b.itersPerRep); it > 0 {
		out["engine.pagerank_iter_host_ms"] = sum.p50us(spEnginePageRank, false) / 1e3 / float64(m.b.itersPerRep)
		out["engine.pagerank_iter_vt_ms"] = sum.p50us(spEnginePageRank, true) / 1e3 / float64(m.b.itersPerRep)
		out["engine.msgs_per_edge"] = msgs / ops
		out["engine.misses_per_kedge"] = cm / ops * 1e3
		out["core.operate.flushes_per_iter"] = counter("core/operate/flushes") / it
		out["core.operate.merges_per_iter"] = counter("core/operate/merges") / it
	}

	critShares(out, spans)
}

// histMedianBound is the upper bound of the power-of-two bucket that
// holds a telemetry histogram's median.
func histMedianBound(h *telemetry.HistData) float64 {
	if h.Count == 0 {
		return missing
	}
	var seen int64
	for i, n := range h.Buckets {
		seen += n
		if 2*seen >= h.Count {
			return float64(telemetry.BucketBound(i))
		}
	}
	return missing
}

// critShares blames the virtual time of the program tracer's sampled
// root ops on stages with the program's own critical-path analyzer, and
// reports each stage's share of all sampled root time.
func critShares(out metrics, spans []trace.Span) {
	byTrace := make(map[uint64][]trace.Span)
	for _, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], s)
	}
	var total, unattributed int64
	stage := make(map[trace.Stage]int64)
	for _, root := range trace.Roots(spans) {
		cp := trace.CriticalPath(byTrace[root.Trace], root)
		total += root.Dur()
		unattributed += cp.Unattributed
		for st, ns := range cp.ByStage {
			stage[st] += ns
		}
	}
	if total == 0 {
		return // no sampled root left the fast path
	}
	share := func(st trace.Stage) float64 { return float64(stage[st]) / float64(total) }
	out["cc.wait_share"] = share(trace.StageCC)
	out["trace.crit.queue_share"] = share(trace.StageQueue)
	out["trace.crit.wire_share"] = share(trace.StageWire)
	out["trace.crit.service_share"] = share(trace.StageService)
	out["trace.crit.fanout_share"] = share(trace.StageFanout)
	out["trace.crit.ship_share"] = share(trace.StageShip)
	out["trace.crit.retransmit_share"] = share(trace.StageRetransmit)
	out["trace.crit.coverage"] = 1 - float64(unattributed)/float64(total)
}
