package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"darray/internal/cluster"
	"darray/internal/stats"
	"darray/internal/trace"
)

// Load shape, fixed for every workload: a closed loop of two simulated
// nodes with one application thread each, so two clients that each
// block on every op (SPMD callers, as in the paper).
const (
	nodes   = 2
	setups  = 3 // set-ups per untraced run; setup_s is their median
	minReps = 3
)

// missing marks a metric that does not apply to the workload or whose
// counter the program no longer exports.
var missing = math.NaN()

var epoch = time.Now()

// now is the host clock of every latency sample: monotonic nanoseconds.
func now() int64 { return int64(time.Since(epoch)) }

// env is what a set-up is built from.
type env struct {
	seed   int64
	scale  float64       // 1 = the sizes README.md states; the tests run 0.01
	reps   int           // measured reps planned (sizes the KVS slab region)
	tracer *trace.Tracer // non-nil in the traced run
	inject string        // test hook: "verify" plants a value a verifier must reject, "panic" panics in a measured rep
}

func (e env) traced() bool { return e.tracer != nil }

// scaled shrinks a count by the test scale, keeping it at least floor.
func (e env) scaled(n, floor int) int {
	return max(floor, int(float64(n)*e.scale))
}

// clusterConfig names only Nodes, Model, CacheChunks (and, traced,
// Metrics and Tracer): never an ablation knob, so those can be deleted
// from the program without touching the benchmark.
func (e env) clusterConfig(cacheChunks int) cluster.Config {
	return cluster.Config{
		Nodes:       nodes,
		Model:       frozenModel(),
		CacheChunks: cacheChunks,
		Metrics:     e.traced(),
		Tracer:      e.tracer,
	}
}

// thread is one client: a node's single application thread.
type thread struct {
	id  int
	ctx *cluster.Ctx
	sp  *spanBuf // benchmark-side spans; nil in the untraced run

	rec      bool    // record latency samples (measured reps only)
	host, vt []int64 // one entry per timed unit, ns
	failed   int64   // ops that returned an error or a wrong value

	h0, h1, v0, v1 int64 // the current rep's window on both clocks
}

// sample records one timed unit's latency on both clocks.
func (t *thread) sample(hostNs, vtNs int64) {
	if t.rec {
		t.host = append(t.host, hostNs)
		t.vt = append(t.vt, vtNs)
	}
}

// instance is a set-up workload: inputs generated, arrays built and
// preloaded. rep is the timed loop and contains only calls into the
// program (plus the clock reads and value checks around them).
type instance interface {
	// rep runs one repetition's fixed op count on t's node.
	rep(t *thread)
	// verify checks the program's state after a rep, untimed, on t's node.
	verify(t *thread)
}

// built is an instance with its cluster and clients.
type built struct {
	c       *cluster.Cluster
	threads [nodes]*thread
	inst    instance

	opsPerRep   int64  // ops both clients complete in one rep
	unitsPerRep int    // latency samples one client records per rep
	arrayWords  int64  // the array (or KVS working set) the workload touches
	cacheWords  int64  // the program's cache per node: CacheChunks x runtimes x chunk words
	inputHash   uint64 // FNV-1a of the generated inputs
	itersPerRep int    // PageRank iterations per rep (graph_pagerank only)
	rangeChunks int64  // chunks the range calls of one rep cover (array_stream only)
}

func newBuilt(c *cluster.Cluster, e env) *built {
	b := &built{c: c}
	cfg := c.Config()
	b.cacheWords = int64(cfg.CacheChunks) * int64(cfg.RuntimeThreads) * int64(cfg.ChunkWords)
	for i := range b.threads {
		b.threads[i] = &thread{id: i, ctx: c.Node(i).NewCtx(0)}
		if e.traced() {
			b.threads[i].sp = newSpanBuf()
		}
	}
	return b
}

// each runs fn once per client, SPMD.
func (b *built) each(fn func(t *thread)) {
	b.c.Run(func(n *cluster.Node) { fn(b.threads[n.ID()]) })
}

// runRep runs one repetition and returns its length on both clocks:
// from the first client's start to the last client's end.
func (b *built) runRep(measured bool) (hostNs, vtNs int64) {
	b.each(func(t *thread) {
		t.rec = measured
		b.c.Barrier(t.ctx) // both clients start together on both clocks
		t.v0, t.h0 = t.ctx.Clock.Now(), now()
		b.inst.rep(t)
		t.h1, t.v1 = now(), t.ctx.Clock.Now()
	})
	a, z := b.threads[0], b.threads[1]
	return max(a.h1, z.h1) - min(a.h0, z.h0), max(a.v1, z.v1) - min(a.v0, z.v0)
}

// err reports a degraded cluster: after it every op returns zero values.
func (b *built) err() error {
	for _, t := range b.threads {
		if err := t.ctx.Err(); err != nil {
			return err
		}
	}
	return b.c.Err()
}

// measurement is what the measured reps of one instance produced.
type measurement struct {
	b         *built
	reps      int
	repHostNs []int64
	repVtNs   []int64
	cpuNs     int64
	mallocs   uint64
	bytes     uint64
	failed    int64
	fatal     string // non-empty when the cluster degraded and the run stopped early
}

func (m *measurement) ops() int64 { return int64(m.reps) * m.b.opsPerRep }

func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measure runs reps measured repetitions of b, verifying after each,
// and reports progress so a supervisor can count the ops a crash left
// un-run. CPU and allocation deltas cover the timed regions only.
func measure(b *built, e env, reps int, progress func(done int64)) *measurement {
	m := &measurement{b: b}
	for _, t := range b.threads {
		t.host = make([]int64, 0, reps*b.unitsPerRep)
		t.vt = make([]int64, 0, reps*b.unitsPerRep)
	}
	if e.inject == "verify" {
		b.each(b.inst.(interface{ plant(*thread) }).plant)
	}
	runtime.GC() // set-up garbage is not the measured reps' to collect
	var m0, m1 runtime.MemStats
	for r := 0; r < reps; r++ {
		if e.inject == "panic" && r == 1 {
			b.each(func(t *thread) { panic("benchmark: injected panic") })
		}
		runtime.ReadMemStats(&m0)
		c0 := cpuNow()
		h, v := b.runRep(true)
		m.cpuNs += cpuNow() - c0
		runtime.ReadMemStats(&m1)
		m.mallocs += m1.Mallocs - m0.Mallocs
		m.bytes += m1.TotalAlloc - m0.TotalAlloc
		if err := b.err(); err != nil {
			m.fatal = err.Error()
			break
		}
		b.each(b.inst.verify)
		m.reps++
		m.repHostNs = append(m.repHostNs, h)
		m.repVtNs = append(m.repVtNs, v)
		progress(m.ops())
	}
	for _, t := range b.threads {
		m.failed += t.failed
	}
	return m
}

// endToEndMetrics computes the untraced run's metrics. Throughputs are
// medians over reps; percentiles pool every measured rep's samples, and
// tailPct is the workload's tail percentile.
func (m *measurement) endToEndMetrics(out map[string]float64, tailPct float64) (samples int) {
	var hostRate, vtRate []float64
	for i := range m.repHostNs {
		hostRate = append(hostRate, stats.Throughput(m.b.opsPerRep, m.repHostNs[i]))
		vtRate = append(vtRate, stats.Throughput(m.b.opsPerRep, m.repVtNs[i]))
	}
	out["host_ops_per_s"] = median(hostRate)
	out["vt_ops_per_s"] = median(vtRate)
	var host, vt stats.Histogram // nearest-rank percentiles over the pooled samples
	for _, t := range m.b.threads {
		host.AddAll(t.host)
		vt.AddAll(t.vt)
	}
	out["host_tail_us"] = usOf(host.Percentile(tailPct))
	out["vt_tail_us"] = usOf(vt.Percentile(tailPct))
	for _, i := range infoMetrics {
		out["info.host_"+i.name] = usOf(host.Percentile(i.pct))
		out["info.vt_"+i.name] = usOf(vt.Percentile(i.pct))
	}
	ops := float64(m.ops())
	out["host_cpu_us_per_op"] = ratio(float64(m.cpuNs)/1e3, ops)
	out["host_allocs_per_op"] = ratio(float64(m.mallocs), ops)
	out["host_bytes_per_op"] = ratio(float64(m.bytes), ops)
	out["peak_rss_mb"] = peakRSSMiB()
	return host.Count()
}

// infoMetrics are printed by -all for information and never bounded.
// The medians: a virtual latency is a sum of a few model constants, so
// its median is one constant, identical in every run (a driver refuses
// a time that never varies), and kv_update's host median sits in the
// gap between its Get and Put modes and swings with it. p99.9 moved
// +-40% between identical runs.
var infoMetrics = []struct {
	name string
	pct  float64
}{{"p50_us", 50}, {"p999_us", 99.9}}

// peakRSSMiB reads this process's VmHWM.
func peakRSSMiB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return missing
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return missing
			}
			return kb / 1024
		}
	}
	return missing
}

// setUp builds w once, runs the discarded warm-up rep, and returns the
// instance with the seconds all of that took. The first rep of a
// process reads 10-25% off in virtual time, hence the warm-up.
func setUp(w *workload, e env) (*built, float64, error) {
	t0 := time.Now()
	b := w.setup(e)
	b.runRep(false)
	if err := b.err(); err != nil {
		b.c.Close()
		return nil, 0, fmt.Errorf("warm-up: %w", err)
	}
	b.each(b.inst.verify)
	for _, t := range b.threads {
		if t.failed != 0 {
			b.c.Close()
			return nil, 0, fmt.Errorf("warm-up: %d ops failed verification", t.failed)
		}
	}
	return b, time.Since(t0).Seconds(), nil
}
