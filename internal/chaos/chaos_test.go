package chaos_test

import (
	"testing"

	"darray/internal/chaos"
	"darray/internal/fabric"
	"darray/internal/fault"
	"darray/internal/vtime"
)

// The acceptance bar from the issue: each workload must produce results
// identical to its fault-free run under >=1% drop plus a two-node
// partition window, with the coherence invariants clean and zero
// goroutine leaks. chaos.Run checks all of that; the tests here pick
// the workloads and assert the schedule actually fired.

func runChaos(t *testing.T, w chaos.Workload, cfg chaos.Config) *chaos.Outcome {
	t.Helper()
	out, err := chaos.Run(w, cfg)
	if err != nil {
		t.Fatal(err) // chaos errors embed the seed and fault log
	}
	if out.FaultStats.Drops == 0 {
		t.Fatalf("seed %d: no drops injected: %+v", out.Seed, out.FaultStats)
	}
	t.Logf("seed %d fp=%016x faults: %s", out.Seed, out.Fingerprint, out.FaultStats)
	return out
}

func TestChaosMicrobench(t *testing.T) {
	for _, seed := range []int64{42, 1337} {
		out := runChaos(t, chaos.Microbench(2048, 300), chaos.Config{Seed: seed, Threads: 2})
		if out.FaultStats.PartitionBlocks == 0 {
			t.Errorf("seed %d: the partition window never fired: %+v", seed, out.FaultStats)
		}
	}
}

// TestChaosBulkRange pushes the pipelined bulk-transfer path (multiple
// outstanding chunk fetches, doorbell-batched and coalesced commands)
// through the default fault schedule: the fingerprint covers every
// node's GetRange read-back, so it must be bit-identical to the
// fault-free run with no goroutine leaks.
func TestChaosBulkRange(t *testing.T) {
	for _, seed := range []int64{42, 1337} {
		out := runChaos(t, chaos.BulkRange(4096), chaos.Config{Seed: seed, Threads: 2})
		if out.FaultStats.PartitionBlocks == 0 {
			t.Errorf("seed %d: the partition window never fired: %+v", seed, out.FaultStats)
		}
	}
}

func TestChaosPageRank(t *testing.T) {
	// Small chunks so the 256 vertices spread across all four nodes and
	// scatter traffic actually crosses the faulty links.
	runChaos(t, chaos.PageRank(8, 3), chaos.Config{Seed: 42, ChunkWords: 32})
}

func TestChaosConnectedComponents(t *testing.T) {
	runChaos(t, chaos.ConnectedComponents(8), chaos.Config{Seed: 42, ChunkWords: 32})
}

func TestChaosKVS(t *testing.T) {
	runChaos(t, chaos.KVS(256, 150), chaos.Config{Seed: 42, Threads: 2})
}

// TestChaosHotKeyShipModes proves function shipping is purely an
// execution-mode choice: the hot-key Operate/Apply workload — the
// traffic the adaptive estimator flips — must fingerprint
// bit-identically under ship off, on, and auto, each run over the
// default fault schedule (>=1% loss plus the partition window), with
// invariants clean and no leaks.
func TestChaosHotKeyShipModes(t *testing.T) {
	w := chaos.HotKey(2048, 300)
	var fps []uint64
	var blocks int64
	modes := []string{"off", "on", "auto"}
	// Shipping reshapes message timing and the race detector skews host
	// scheduling, so the default 100-600 µs partition window can miss
	// the 1<->2 traffic entirely; pin a window wide enough to catch it
	// in every mode while staying inside the retransmission budget
	// (~2.8 ms), so it heals transparently.
	parts := []fault.Partition{{A: 1, B: 2, Start: 50_000, End: 1_500_000}}
	for _, mode := range modes {
		out := runChaos(t, w, chaos.Config{Seed: 42, Threads: 2, Ship: mode, Partitions: parts})
		blocks += out.FaultStats.PartitionBlocks
		fps = append(fps, out.Fingerprint)
	}
	if blocks == 0 {
		t.Error("the partition window never fired in any shipping mode")
	}
	for i, fp := range fps {
		if fp != fps[0] {
			t.Errorf("shipping changed the result: ship=%s %016x, ship=%s %016x",
				modes[0], fps[0], modes[i], fp)
		}
	}
}

// TestChaosStreamContention drives the congestion-control tentpole's
// chaos bar: four concurrent bulk streams per node all crossing the
// same links under the default fault schedule (>=1% loss plus the
// partition window), once with adaptive windows and once with fixed
// ones (NoCC). Windows only reschedule traffic, so both runs must
// fingerprint bit-identically to the fault-free run (chaos.Run also
// checks the coherence invariants, the pooled-buffer leak count, and
// goroutine drain after every run).
func TestChaosStreamContention(t *testing.T) {
	w := chaos.StreamContention(65536, 4)
	// The bulk streams pipeline aggressively, so virtual time advances
	// slower than in the RPC-heavy workloads; pin a partition window
	// wide enough that the 1<->2 streams are guaranteed to cross it
	// while staying inside the retransmission budget, so it heals.
	parts := []fault.Partition{{A: 1, B: 2, Start: 50_000, End: 1_500_000}}
	cfg := chaos.Config{Seed: 42, Partitions: parts}
	adaptive := runChaos(t, w, cfg)
	if adaptive.FaultStats.PartitionBlocks == 0 {
		t.Errorf("seed %d: the partition window never fired: %+v", adaptive.Seed, adaptive.FaultStats)
	}
	fixed := cfg
	fixed.NoCC = true
	noCC := runChaos(t, w, fixed)
	if adaptive.Fingerprint != noCC.Fingerprint {
		t.Errorf("congestion control changed the result: adaptive %016x, NoCC %016x",
			adaptive.Fingerprint, noCC.Fingerprint)
	}
}

// DefaultFaults must satisfy the acceptance bar by construction.
func TestChaosDefaultFaultsMeetBar(t *testing.T) {
	cfg := chaos.DefaultFaults(7, 4)
	if cfg.DropProb < 0.01 {
		t.Fatalf("default drop probability %g below the 1%% bar", cfg.DropProb)
	}
	if len(cfg.Partitions) == 0 {
		t.Fatal("default schedule has no partition window")
	}
	if cfg.Seed != 7 {
		t.Fatalf("seed not propagated: %d", cfg.Seed)
	}
}

// Reproducibility satellite: the same -chaos-seed must yield a
// byte-identical fault log. Concurrent workloads perturb per-link
// message sequences, so the contract is stated over a deterministic
// traversal sequence: scripted single-goroutine fabric traffic.
func TestChaosSeedReproducibility(t *testing.T) {
	script := func(seed int64) string {
		plan := fault.New(chaos.DefaultFaults(seed, 4))
		f := fabric.New(fabric.Config{Nodes: 4, Model: vtime.Default(), Faults: plan})
		defer f.Close()
		vt := int64(0)
		for i := 0; i < 400; i++ {
			from, to := i%4, (i+1+i/4)%4
			if from == to {
				continue
			}
			vt += 2_000 // march through the partition and stall windows
			ep := f.Endpoint(from)
			ep.Post(&fabric.Message{To: to, Kind: uint8(i % 7), VT: vt})
		}
		return plan.Log()
	}
	a, b := script(99), script(99)
	if a != b {
		t.Fatalf("seed 99: fault logs differ between identical runs:\n--- run 1:\n%s\n--- run 2:\n%s", a, b)
	}
	if c := script(100); c == a {
		t.Fatal("different seeds produced identical fault logs")
	}
}
