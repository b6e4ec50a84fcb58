package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"

	"darray/internal/trace"
)

// runResult is what one run of one workload reports: the child's last
// stdout line, a row of the -all report, and (reshaped) the driver's
// result line.
type runResult struct {
	Workload  string   `json:"workload"`
	Traced    bool     `json:"traced"`
	Seed      int64    `json:"seed"`
	InputHash string   `json:"input_hash"`
	Unit      string   `json:"timed_unit"`
	Reps      int      `json:"reps"`
	OpsPerRep int64    `json:"ops_per_rep"`
	Samples   int      `json:"latency_samples"`
	Array     int64    `json:"array_words"`
	Cache     int64    `json:"cache_words_per_node"`
	Ratio     float64  `json:"array_to_cache"`
	Attempted int64    `json:"attempted"`
	Failed    int64    `json:"failed"`
	FailRatio float64  `json:"fail_ratio"`
	Metrics   metrics  `json:"metrics"`
	Host      hostMeta `json:"host"`
	Error     string   `json:"error,omitempty"`
}

// metrics maps a metric name to its value; a missing value (NaN)
// marshals as null.
type metrics map[string]float64

func (m metrics) MarshalJSON() ([]byte, error) {
	out := make(map[string]*float64, len(m))
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			out[k] = nil
		} else {
			out[k] = &v // per-iteration v (go 1.22)
		}
	}
	return json.Marshal(out)
}

func (m *metrics) UnmarshalJSON(b []byte) error {
	var in map[string]*float64
	if err := json.Unmarshal(b, &in); err != nil {
		return err
	}
	*m = make(metrics, len(in))
	for k, v := range in {
		if v == nil {
			(*m)[k] = missing
		} else {
			(*m)[k] = *v
		}
	}
	return nil
}

// hostMeta records where a result came from.
type hostMeta struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func thisHost() hostMeta {
	return hostMeta{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), os.Getenv("DARRAY_BENCH_COMMIT")}
}

// progressLine is what a child prints while it runs, so that its
// supervisor can count the ops a crash or a deadline left un-run.
type progressLine struct {
	Planned int64 `json:"planned,omitempty"`
	Done    int64 `json:"done"`
}

// childOpts is one run's request.
type childOpts struct {
	w       *workload
	seed    int64
	seconds float64
	scale   float64
	traced  bool
	inject  string
	outdir  string // traced runs write their spans here; "" writes nothing
}

// runChild measures one workload in this process and returns its
// result. Progress lines go to progress as JSON, one per line.
func runChild(o childOpts, progress io.Writer) *runResult {
	// GOMAXPROCS = min(nproc, 4): two application threads plus the
	// runtimes' and comm goroutines' share of up to two more cores.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	res := &runResult{Workload: o.w.name, Traced: o.traced, Seed: o.seed, Unit: o.w.unit,
		Metrics: metrics{}, Host: thisHost()}
	enc := json.NewEncoder(progress)
	report := func(planned, done int64) {
		_ = enc.Encode(progressLine{Planned: planned, Done: done}) // a lost progress line only loosens crash accounting
	}
	if o.traced {
		runTraced(o, res, report)
	} else {
		runUntraced(o, res, report)
	}
	res.setFailed(res.Attempted, res.Failed)
	return res
}

// setFailed records the op counts and their ratio; failed is capped at
// attempted (one op can fail more than one check).
func (r *runResult) setFailed(attempted, failed int64) {
	r.Attempted, r.Failed = attempted, min(failed, attempted)
	r.FailRatio = float64(r.Failed) / float64(max(attempted, 1))
}

func (r *runResult) describe(b *built) {
	r.InputHash = fmt.Sprintf("%016x", b.inputHash)
	r.OpsPerRep = b.opsPerRep
	r.Array, r.Cache = b.arrayWords, b.cacheWords
	r.Ratio = float64(b.arrayWords) / float64(b.cacheWords)
}

// account folds a measurement's op counts into the result: ops of reps
// that never ran (a degraded cluster) count as failed.
func (r *runResult) account(m *measurement, planned int) {
	r.Reps = m.reps
	r.Attempted = int64(planned) * m.b.opsPerRep
	r.Failed = m.failed + int64(planned-m.reps)*m.b.opsPerRep
	if m.fatal != "" {
		r.Error = "cluster degraded: " + m.fatal
	}
}

// runUntraced produces the end-to-end metrics: several set-ups (their
// median is setup_s), the last one measured with tracing and telemetry
// off.
func runUntraced(o childOpts, res *runResult, report func(planned, done int64)) {
	reps := o.w.repsFor(o.seconds)
	e := env{seed: o.seed, scale: o.scale, reps: reps, inject: o.inject}
	var b *built
	var setupS []float64
	for i := 0; i < setups; i++ {
		if b != nil {
			b.c.Close()
		}
		var s float64
		var err error
		if b, s, err = setUp(o.w, e); err != nil {
			res.Attempted, res.Failed, res.Error = 1, 1, err.Error()
			return
		}
		setupS = append(setupS, s)
	}
	defer b.c.Close()
	res.describe(b)
	report(int64(reps)*b.opsPerRep, 0)
	m := measure(b, e, reps, func(done int64) { report(0, done) })
	res.account(m, reps)
	if m.reps > 0 {
		res.Samples = m.endToEndMetrics(res.Metrics, o.w.tailPct)
	}
	res.Metrics["setup_s"] = median(setupS)
}

// runTraced produces the per-layer metrics. It measures the workload
// twice - untraced, then with telemetry, the program's tracer (one root
// in 64) and the benchmark's boundary spans on - so that the ratio of
// the two is the tracing overhead, and then runs the layer probes.
func runTraced(o childOpts, res *runResult, report func(planned, done int64)) {
	reps := max(minReps, o.w.repsFor(o.seconds/4))
	e := env{seed: o.seed, scale: o.scale, reps: reps}
	plain, _, err := setUp(o.w, e)
	if err != nil {
		res.Attempted, res.Failed, res.Error = 1, 1, err.Error()
		return
	}
	res.describe(plain)
	planned := 2 * int64(reps) * plain.opsPerRep
	report(planned, 0)
	pm := measure(plain, e, reps, func(done int64) { report(0, done) })
	plain.c.Close()
	out := metrics{}
	if pm.reps > 0 {
		pm.endToEndMetrics(out, o.w.tailPct)
	}

	e.tracer = trace.New(1 << 18)
	e.tracer.Enable(o.w.traceEvery)
	tb, _, err := setUp(o.w, e)
	if err != nil {
		res.Attempted, res.Failed, res.Error = planned, planned-pm.ops(), err.Error()
		return
	}
	e.tracer.Reset() // drop the warm-up's spans
	for _, t := range tb.threads {
		t.sp.reset()
	}
	before := tb.c.Telemetry().Snapshot()
	tm := measure(tb, e, reps, func(done int64) { report(0, pm.ops()+done) })
	delta := tb.c.Telemetry().Snapshot().Delta(before)
	pool := tb.c.BufPool()
	tb.c.Close()

	res.account(tm, reps)
	res.Attempted += int64(reps) * plain.opsPerRep
	res.Failed += pm.failed + int64(reps-pm.reps)*plain.opsPerRep
	if pm.fatal != "" && res.Error == "" {
		res.Error = "cluster degraded: " + pm.fatal
	}

	for _, s := range perLayer {
		res.Metrics[s.Name] = missing
	}
	if tm.reps > 0 && pm.reps > 0 {
		traced := metrics{}
		tm.endToEndMetrics(traced, o.w.tailPct)
		res.Metrics["trace.overhead_ratio"] = ratio(out["host_ops_per_s"], traced["host_ops_per_s"])
		spans := e.tracer.Spans()
		sum := summarize([]*spanBuf{tb.threads[0].sp, tb.threads[1].sp})
		workloadLayerMetrics(res.Metrics, tm, delta, sum, spans)
		res.Metrics["trace.spans_dropped"] = float64(e.tracer.Dropped() + sum.dropped)
		if pool != nil {
			res.Metrics["buf.outstanding_end"] = float64(pool.Outstanding())
		}
		if o.outdir != "" {
			if err := writeTrace(o.outdir, res, tb, delta, spans); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: writing trace:", err)
			}
		}
	}
	runProbes(res.Metrics, o.scale)
}

// writeTrace saves the traced run's raw material: the benchmark's spans
// with the counter deltas, and the program tracer's spans in Perfetto
// form.
func writeTrace(dir string, res *runResult, b *built, delta any, spans []trace.Span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	type spanRow [7]int64 // name, parent, op, host begin, host end, vt begin, vt end
	doc := struct {
		Result    *runResult  `json:"result"`
		SpanNames []string    `json:"span_names"`
		Columns   []string    `json:"span_columns"`
		Spans     [][]spanRow `json:"spans_by_client"`
		Counters  any         `json:"counter_deltas"`
	}{Result: res, SpanNames: spanNames[:], Counters: delta,
		Columns: []string{"name", "parent", "op", "host_begin_ns", "host_end_ns", "vt_begin_ns", "vt_end_ns"}}
	for _, t := range b.threads {
		rows := make([]spanRow, len(t.sp.spans))
		for i, s := range t.sp.spans {
			rows[i] = spanRow{int64(s.name), int64(s.parent), s.op, s.hb, s.he, s.vb, s.ve}
		}
		doc.Spans = append(doc.Spans, rows)
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+res.Workload+".json"))
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(doc); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return trace.ExportFile(filepath.Join(dir, "trace-"+res.Workload+".perfetto.json"), spans)
}
