package main

// The benchmark's vocabulary: every workload and metric name, with its
// unit, direction and (end to end) regression bound. BENCHMARK.json is
// this table rendered as JSON (`-spec` prints it; a test compares the
// two), so a name exists in exactly one place.

// metricSpec is one named measurement.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end to end only: allowed worsening as a share of the parent's median
}

const (
	hi = "higher"
	lo = "lower"
)

// endToEnd lists the metrics a user of the system sees. Each is
// reported for every workload by the untraced run, and none is ever 0
// or the same in every run. Bounds are the larger of what the issue
// asked for and about three times the run-to-run spread measured over
// ten seeds on the two-core reference host, capped at the contract's
// 0.25 (README.md has the measured spreads).
var endToEnd = []metricSpec{
	{"host_ops_per_s", "ops/s", hi, 0.25},  // ops completed per host wall second, both clients; median over reps
	{"host_tail_us", "us", lo, 0.25},       // host latency of one timed unit, the workload's tail percentile (p99; p90 on graph_pagerank), samples pooled over reps
	{"host_cpu_us_per_op", "us", lo, 0.25}, // process user+sys CPU (getrusage) per op over the timed regions
	{"vt_ops_per_s", "ops/s", hi, 0.08},    // ops per virtual second: ops / (max thread end - min thread start) on ctx.Clock; median over reps
	{"vt_tail_us", "us", lo, 0.20},         // virtual latency of one timed unit (ctx.Clock delta), the workload's tail percentile, pooled
	{"host_allocs_per_op", "1", lo, 0.05},  // runtime.MemStats Mallocs delta per op over the timed regions
	{"host_bytes_per_op", "B", lo, 0.05},   // runtime.MemStats TotalAlloc delta per op over the timed regions
	{"peak_rss_mb", "MiB", lo, 0.25},       // VmHWM of the measuring process
	{"setup_s", "s", lo, 0.25},             // input generation + cluster and array construction + preload + one warm-up rep; median of three set-ups
}

// perLayer lists the single-layer metrics of the traced run. Sources:
// [P] a layer probe (micro-loop on a private instance), [W] counters
// and benchmark-side spans around the workload, [T] the program's own
// virtual-time tracer. Host clock unless the name says vt. A metric
// that does not apply to a workload (kvs.* on array_local) or whose
// counter a later change removed is null in reports and -1 on the
// driver's result line.
var perLayer = []metricSpec{
	{"queue.mpsc_push_pop_ns", "ns", lo, 0}, // [P] MPSC Push+Pop, one goroutine
	{"queue.mpsc_handoff_ns", "ns", lo, 0},  // [P] MPSC Push on one goroutine to PopWait return on another (half a ping-pong)
	{"queue.spsc_push_pop_ns", "ns", lo, 0}, // [P] SPSC TryPush+TryPop, one goroutine

	{"buf.get_release_ns", "ns", lo, 0},     // [P] Pool.Get(512)+Release
	{"buf.pool_hit_ratio", "1", hi, 0},      // [W] pool hits / (hits+misses)
	{"buf.outstanding_end", "count", lo, 0}, // [W] Pool.Outstanding after Close; must be 0

	{"fabric.post_poll_ns", "ns", lo, 0},       // [P] Endpoint.Post to the peer's PollWait return, nil model (half a ping-pong)
	{"fabric.onesided_read_ns", "ns", lo, 0},   // [P] Endpoint.ReadWord, nil model
	{"fabric.msgs_per_op", "1", lo, 0},         // [W] two-sided messages sent per op
	{"fabric.bytes_per_op", "B", lo, 0},        // [W] two-sided bytes sent per op
	{"fabric.doorbell_batch_mean", "1", hi, 0}, // [W] work requests per Tx doorbell
	{"fabric.coalesced_per_msg", "1", hi, 0},   // [W] commands absorbed by destination coalescing per message sent
	{"fabric.retransmits", "count", lo, 0},     // [W] go-back-N resends (0 on the fault-free fabric)

	{"cluster.submit_complete_ns", "ns", lo, 0}, // [P] Runtime.Submit -> ctx.Complete -> WaitResp: the local slow-path wake
	{"cluster.send_handle_rtt_ns", "ns", lo, 0}, // [P] Node.Send -> Tx -> fabric -> Rx -> Route.Handle and back: the floor under every miss
	{"cluster.barrier_ns", "ns", lo, 0},         // [P] Cluster.Barrier, two nodes
	{"cluster.new_close_ms", "ms", lo, 0},       // [P] cluster.New + Close, two nodes

	{"cc.cwnd_p50", "1", hi, 0},     // [W] median congestion window (power-of-two bucket bound) at bulk completions
	{"cc.backoffs", "count", lo, 0}, // [W] multiplicative backoffs and resets
	{"cc.wait_share", "1", lo, 0},   // [T] share of sampled roots' virtual time blocked on a full window

	{"core.fast.get_hit_ns", "ns", lo, 0},          // [P] Get on a resident home chunk
	{"core.fast.set_hit_ns", "ns", lo, 0},          // [P] Set on a resident home chunk
	{"core.fast.apply_hit_ns", "ns", lo, 0},        // [P] Apply(OpAddU64) on a resident home chunk
	{"core.fast.pin_get_ns", "ns", lo, 0},          // [P] Pin.Get through a held PinRead
	{"core.fast.remote_hit_ns", "ns", lo, 0},       // [P] Get on a cached remote chunk
	{"core.cache.hit_ratio", "1", hi, 0},           // [W] fast-path hits / (hits+misses)
	{"core.fast.delay_stalls_per_mop", "1", lo, 0}, // [W] fast-path encounters with a raised delay flag per million ops

	{"core.slow.read_miss_host_ns", "ns", lo, 0},   // [P] cold Get of an Unshared remote chunk, host time: the simulator's cost per simulated miss
	{"core.slow.read_miss_vt_ns", "ns", lo, 0},     // [P] the same miss in virtual time
	{"core.slow.write_inval_host_ns", "ns", lo, 0}, // [P] home Set on a chunk the other node shares, host time
	{"core.slow.write_inval_vt_ns", "ns", lo, 0},   // [P] the same invalidating write in virtual time
	{"core.slow.allocs_per_miss", "1", lo, 0},      // [P] heap allocations per cold read miss
	{"core.slow.evictions_per_miss", "1", lo, 0},   // [W] cache lines evicted per slow-path request
	{"core.slow.writebacks_per_op", "1", lo, 0},    // [W] dirty write-backs per op
	{"core.slow.invalidations_per_op", "1", lo, 0}, // [W] invalidations processed per op
	{"core.slow.recalls_per_op", "1", lo, 0},       // [W] Dirty-owner recalls per op
	{"core.slow.downgrades_per_op", "1", lo, 0},    // [W] Dirty-to-Shared downgrades per op
	{"core.slow.ref_drain_stalls", "count", lo, 0}, // [W] permission demotions that waited out live references
	{"core.prefetch.useful_ratio", "1", hi, 0},     // [W] speculative fills consumed / issued
	{"core.prefetch.wasted_ratio", "1", lo, 0},     // [W] speculative fills evicted untouched / issued

	{"core.lock.pair_host_ns", "ns", lo, 0},       // [P] uncontended RLock+Unlock, remote home, host time
	{"core.lock.pair_vt_ns", "ns", lo, 0},         // [P] the same pair in virtual time
	{"core.lock.host_share_of_kv_op", "1", lo, 0}, // [W] host time inside RLock/WLock/Unlock / KVS op time
	{"core.lock.vt_share_of_kv_op", "1", lo, 0},   // [W] virtual time inside RLock/WLock/Unlock / KVS op time

	{"core.bulk.getrange_host_us_p50", "us", lo, 0}, // [W] median GetRange call, host
	{"core.bulk.setrange_host_us_p50", "us", lo, 0}, // [W] median SetRange call, host
	{"core.bulk.getrange_vt_us_p50", "us", lo, 0},   // [W] median GetRange call, virtual
	{"core.bulk.setrange_vt_us_p50", "us", lo, 0},   // [W] median SetRange call, virtual
	{"core.bulk.fills_per_chunk", "1", lo, 0},       // [W] cache fills per chunk a range call covered (1.0 = no wasted fetch)

	{"core.operate.combines_per_op", "1", hi, 0},  // [W] Operate combines into a local buffer per op
	{"core.operate.flushes_per_iter", "1", lo, 0}, // [W] combined-operand flushes per PageRank iteration
	{"core.operate.merges_per_iter", "1", lo, 0},  // [W] operand buffers merged at home per PageRank iteration
	{"core.ship.ops", "count", lo, 0},             // [W] ops shipped to their home
	{"core.ship.flips", "count", lo, 0},           // [W] estimator mode flips

	{"kvs.get_host_us_p50", "us", lo, 0},    // [W] median Store.Get, host
	{"kvs.put_host_us_p50", "us", lo, 0},    // [W] median Store.Put, host
	{"kvs.get_vt_us_p50", "us", lo, 0},      // [W] median Store.Get, virtual
	{"kvs.put_vt_us_p50", "us", lo, 0},      // [W] median Store.Put, virtual
	{"kvs.self_share_host", "1", lo, 0},     // [W] KVS span minus its core child spans (hash, probe logic, encode, slab) / KVS span
	{"kvs.core_calls_per_op", "1", lo, 0},   // [W] WordStore calls per KVS op
	{"kvs.slab_alloc_free_ns", "ns", lo, 0}, // [P] Slab.Alloc+Free of one record

	{"engine.pagerank_iter_host_ms", "ms", lo, 0}, // [W] median PageRank call / iterations, host
	{"engine.pagerank_iter_vt_ms", "ms", lo, 0},   // [W] median PageRank call / iterations, virtual
	{"engine.msgs_per_edge", "1", lo, 0},          // [W] fabric messages per edge update
	{"engine.misses_per_kedge", "1", lo, 0},       // [W] slow-path requests per thousand edge updates

	{"vtime.acquire_ns", "ns", lo, 0},           // [P] Resource.Acquire
	{"vtime.host_ns_per_vt_us", "ns/us", lo, 0}, // [W] host ns spent per simulated microsecond: the simulator's slowdown

	{"trace.overhead_ratio", "1", lo, 0},        // untraced / traced host_ops_per_s within the traced run
	{"trace.spans_dropped", "count", lo, 0},     // spans the program's tracer or the benchmark's recorder had no room for
	{"trace.crit.queue_share", "1", lo, 0},      // [T] critical-path share of sampled roots: queueing
	{"trace.crit.wire_share", "1", lo, 0},       // [T] critical-path share: wire
	{"trace.crit.service_share", "1", lo, 0},    // [T] critical-path share: runtime service
	{"trace.crit.fanout_share", "1", lo, 0},     // [T] critical-path share: invalidation/collapse fan-out
	{"trace.crit.ship_share", "1", lo, 0},       // [T] critical-path share: function shipping
	{"trace.crit.retransmit_share", "1", lo, 0}, // [T] critical-path share: retransmission
	{"trace.crit.coverage", "1", hi, 0},         // [T] share of sampled roots' virtual time blamed on some span
}

// workloadSpec names one workload and says why it exists.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// benchmarkJSON is the schema of the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"` // bound 0: the key is omitted
}

// runSeconds is how long one driver run measures.
const runSeconds = 10

func benchmarkSpec() benchmarkJSON {
	b := benchmarkJSON{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		b.Workloads = append(b.Workloads, workloadSpec{w.name, w.why})
	}
	return b
}
