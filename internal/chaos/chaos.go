// Package chaos proves the coherence protocol survives adversity: it
// runs real workloads (microbench, PageRank, connected components, KVS
// YCSB-B) twice on identical cluster geometry — once on a perfect
// fabric, once over a seeded fault plan injecting loss, duplication,
// latency spikes, a link partition window, and a stalled node — and
// asserts the results are bit-identical. After the faulted run it
// quiesces, checks the paper's Table-1 coherence invariants with
// core.ValidateQuiesced, and verifies every cluster goroutine drained.
//
// Every failure report embeds the seed and the plan's deterministic
// fault log, so a flake replays exactly (see internal/fault for the
// determinism contract).
package chaos

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/fault"
	"darray/internal/vtime"
)

// Config parameterises a chaos run. Zero-valued fields take defaults
// (4 nodes, 1 thread, the calibrated vtime model, and the fault
// intensities of DefaultFaults). Set them explicitly to scale up.
type Config struct {
	Seed    int64
	Nodes   int
	Threads int          // application threads per node (micro and KVS workloads)
	Model   *vtime.Model // must be non-nil for vtime-keyed fault windows to fire

	// Fault intensities; <0 disables a knob that defaults to non-zero.
	Drop, Dup, Spike float64
	SpikeNs          int64

	// Schedule overrides. Nil means the DefaultFaults windows.
	Partitions []fault.Partition
	Stalls     []fault.Stall
	Targeted   []fault.DropRule

	// Cache geometry for the workload clusters: small enough to force
	// eviction and recall traffic through the faulty fabric.
	ChunkWords  int
	CacheChunks int

	// Ship selects the function-shipping mode ("" = "auto", "on",
	// "off"). Shipped ops are commutative, so results must be
	// bit-identical in every mode.
	Ship string

	// NoCC pins the congestion windows at their ceilings (cc.Fixed).
	// Windows only reschedule traffic, so results must be bit-identical
	// either way.
	NoCC bool

	Out io.Writer // optional progress/trace output
}

func (cfg Config) fill() Config {
	if cfg.Nodes <= 0 {
		cfg.Nodes = 4
	}
	if cfg.Threads <= 0 {
		cfg.Threads = 1
	}
	if cfg.Model == nil {
		cfg.Model = vtime.Default()
	}
	def := DefaultFaults(cfg.Seed, cfg.Nodes)
	if cfg.Drop == 0 {
		cfg.Drop = def.DropProb
	}
	if cfg.Dup == 0 {
		cfg.Dup = def.DupProb
	}
	if cfg.Spike == 0 {
		cfg.Spike = def.SpikeProb
		cfg.SpikeNs = def.SpikeNs
	}
	if cfg.Partitions == nil {
		cfg.Partitions = def.Partitions
	}
	if cfg.Stalls == nil {
		cfg.Stalls = def.Stalls
	}
	if cfg.ChunkWords <= 0 {
		cfg.ChunkWords = 128
	}
	if cfg.CacheChunks <= 0 {
		cfg.CacheChunks = 64
	}
	return cfg
}

// FaultConfig renders the chaos configuration as a fault plan config.
func (cfg Config) FaultConfig() fault.Config {
	f := fault.Config{
		Seed:       cfg.Seed,
		Nodes:      cfg.Nodes,
		Partitions: cfg.Partitions,
		Stalls:     cfg.Stalls,
		Targeted:   cfg.Targeted,
	}
	if cfg.Drop > 0 {
		f.DropProb = cfg.Drop
	}
	if cfg.Dup > 0 {
		f.DupProb = cfg.Dup
	}
	if cfg.Spike > 0 {
		f.SpikeProb = cfg.Spike
		f.SpikeNs = cfg.SpikeNs
	}
	return f
}

// DefaultFaults is the fault schedule behind the -chaos flag and the
// chaos test defaults: 2% drop, 1% duplication, 0.5% latency spikes,
// one partition window between nodes 1 and 2, and one stalled node.
// Satisfies the acceptance bar of >=1% loss plus a 2-node partition.
func DefaultFaults(seed int64, nodes int) fault.Config {
	cfg := fault.Config{
		Seed:     seed,
		Nodes:    nodes,
		DropProb: 0.02, DupProb: 0.01,
		SpikeProb: 0.005, SpikeNs: 20_000,
	}
	if nodes >= 3 {
		cfg.Partitions = []fault.Partition{{A: 1, B: 2, Start: 100_000, End: 600_000}}
	} else if nodes == 2 {
		cfg.Partitions = []fault.Partition{{A: 0, B: 1, Start: 100_000, End: 600_000}}
	}
	if nodes >= 2 {
		cfg.Stalls = []fault.Stall{{Node: nodes - 1, Start: 150_000, End: 400_000}}
	}
	return cfg
}

// Workload is a deterministic cluster job: Run executes it (internally
// calling c.Run with SPMD node functions), returns a fingerprint of the
// observable result, and hands back the core arrays it used so the
// harness can invariant-check them. The fingerprint must depend only on
// (threads, seed) — never on scheduling — so fault-free and faulted
// runs are comparable.
type Workload struct {
	Name string
	Run  func(c *cluster.Cluster, threads int, seed int64) (uint64, []*core.Array)
}

// Outcome summarises one chaos comparison.
type Outcome struct {
	Workload    string
	Seed        int64
	Fingerprint uint64
	FaultStats  fault.Stats
	FaultLog    string // deterministic; byte-identical across same-seed runs
}

// Run executes w fault-free and then under cfg's fault plan, comparing
// fingerprints and checking invariants and goroutine hygiene after each
// run. The returned error (if any) always names the seed.
func Run(w Workload, cfg Config) (*Outcome, error) {
	cfg = cfg.fill()
	base, err := runOnce(w, cfg, nil)
	if err != nil {
		return nil, fmt.Errorf("chaos %s seed=%d: fault-free run: %w", w.Name, cfg.Seed, err)
	}
	plan := fault.New(cfg.FaultConfig())
	got, err := runOnce(w, cfg, plan)
	out := &Outcome{
		Workload:    w.Name,
		Seed:        cfg.Seed,
		Fingerprint: base,
		FaultStats:  plan.Stats(),
		FaultLog:    plan.Log(),
	}
	if err != nil {
		return out, fmt.Errorf("chaos %s seed=%d: faulted run: %w\nfault log:\n%s",
			w.Name, cfg.Seed, err, plan.Log())
	}
	if got != base {
		return out, fmt.Errorf("chaos %s seed=%d: result diverged under faults: fault-free %016x, faulted %016x\nfault log:\n%s",
			w.Name, cfg.Seed, base, got, plan.Log())
	}
	if cfg.Out != nil {
		fmt.Fprintf(cfg.Out, "chaos %s seed=%d ok: fp=%016x faults: %s\n",
			w.Name, cfg.Seed, base, plan.Stats())
	}
	return out, nil
}

// runOnce builds a cluster (optionally over a fault plan), runs the
// workload, checks cluster health, the Table-1 invariants, and that
// every goroutine the cluster started has drained.
func runOnce(w Workload, cfg Config, plan *fault.Plan) (uint64, error) {
	before := runtime.NumGoroutine()
	c := cluster.New(cluster.Config{
		Nodes:          cfg.Nodes,
		Model:          cfg.Model,
		Faults:         plan,
		ChunkWords:     cfg.ChunkWords,
		CacheChunks:    cfg.CacheChunks,
		RuntimeThreads: 2,
		Ship:           cfg.Ship,
		NoCC:           cfg.NoCC,
	})
	fp, arrays := w.Run(c, cfg.Threads, cfg.Seed)
	if err := c.Err(); err != nil {
		c.Close()
		return 0, fmt.Errorf("cluster degraded (the fault schedule must stay survivable): %w", err)
	}
	verr := validateArrays(arrays)
	pool := c.BufPool()
	c.Close()
	if verr != nil {
		return 0, verr
	}
	if n := pool.Outstanding(); n != 0 {
		return 0, fmt.Errorf("buffer leak: %d pool buffers still referenced after close", n)
	}
	if err := waitDrained(before); err != nil {
		return 0, err
	}
	return fp, nil
}

// validateArrays checks the coherence invariants of every array once
// the last protocol acknowledgements have landed (core.AwaitQuiesced).
func validateArrays(arrays []*core.Array) error {
	for _, a := range arrays {
		if err := core.AwaitQuiesced(a.Instances()); err != nil {
			return fmt.Errorf("coherence invariants: %w", err)
		}
	}
	return nil
}

// waitDrained polls until the process goroutine count returns to the
// pre-cluster baseline (small slack for runtime-internal goroutines).
func waitDrained(baseline int) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= baseline+2 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("goroutine leak: %d before the cluster, %d after close", baseline, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
