package main

import "math"

// workload is one set of inputs and the loop that drives the program
// with them. Every workload runs the same load shape (see harness.go);
// they differ in which layers do the work.
type workload struct {
	name string
	why  string // one line: the layer it stresses and the one it bypasses
	unit string // what one latency sample times
	// repSec is how long one rep took at the commit that defined the
	// benchmark, on the two-core reference host. A run of S seconds is
	// S/repSec reps of fixed work, so a faster program finishes sooner
	// rather than doing more (and allocating more) in the same time.
	repSec float64
	// traceEvery is the traced run's root sampling period for the
	// program's tracer: one root in 64 where ops are slow-path sized,
	// sparser where a rep is 10^7..10^8 fast-path hits, so that the
	// tracer's buffer keeps every sampled root (nothing dropped).
	traceEvery int
	// tailPct is the tail percentile of the *_tail_us metrics: the highest
	// of p99 and p90 that a 10 s run leaves at least ten samples beyond.
	tailPct float64
	setup   func(e env) *built
}

var workloads = []*workload{
	{
		name:       "kv_read",
		why:        "YCSB-B on the DArray KVS (Fig. 17): core lock round trips to the home runtime plus kvs probing do the work; bulk, cc and the pipeline do none",
		unit:       "one Get or Put",
		repSec:     0.40,
		traceEvery: 256,
		tailPct:    99,
		setup:      setupKV(0.95),
	},
	{
		name:       "kv_update",
		why:        "YCSB-A on the same store: WLock, Set, cross-node invalidation and recall of Dirty chunks, slab alloc/free, so a read-side gain that taxes writers shows here",
		unit:       "one Get or Put",
		repSec:     0.65,
		traceEvery: 256,
		tailPct:    99,
		setup:      setupKV(0.5),
	},
	{
		name:       "graph_pagerank",
		why:        "PageRank on R-MAT scale 17 (Fig. 16): core fast-path Apply/Get/Set hits in the Operated state plus barrier-time flush and merge; locks do nothing",
		unit:       "one PageRank call of 10 iterations",
		repSec:     0.20,
		traceEvery: 2048,
		tailPct:    90,
		setup:      setupPageRank,
	},
	{
		name:       "array_stream",
		why:        "GetRange/SetRange over a remote partition 16x the cache: the bulk pipeline, cc windows, doorbell batching, fabric bandwidth and buf pooling dominate; the fast path does little",
		unit:       "one 8 Ki-word range call",
		repSec:     0.35,
		traceEvery: 64,
		tailPct:    99,
		setup:      setupStream,
	},
	{
		name:       "array_rand",
		why:        "uniform random 8-byte access over 16x the cache (Fig. 18): one outstanding miss at a time isolates the core slow path and the small-message hop; windows are bypassed",
		unit:       "one Get or Set",
		repSec:     0.58,
		traceEvery: 64,
		tailPct:    99,
		setup:      setupRand,
	},
	{
		name:       "array_local",
		why:        "each node sweeps its own partition with Get, Set, Apply and Pin (Figs. 1, 12, 15): only the lock-free delay/refcnt/state fast path runs, with no messages",
		unit:       "a 4096-access batch",
		repSec:     0.46,
		traceEvery: 8192,
		tailPct:    99,
		setup:      setupLocal,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// repsFor converts a run length into a rep count.
func (w *workload) repsFor(seconds float64) int {
	return max(minReps, int(math.Round(seconds/w.repSec)))
}
