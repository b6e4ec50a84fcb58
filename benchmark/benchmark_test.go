package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// testScale is 1/100 of the sizes the benchmark measures at.
const testScale = 0.01

// TestMain lets the supervisor tests re-execute this test binary as the
// measuring child.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

func smallRun(t *testing.T, w *workload, seed int64, traced bool, inject string) *runResult {
	t.Helper()
	o := childOpts{w: w, seed: seed, seconds: 1, scale: testScale, traced: traced, inject: inject, outdir: t.TempDir()}
	return runChild(o, io.Discard)
}

func TestEveryWorkloadCompletesWithoutFailures(t *testing.T) {
	for _, w := range workloads {
		res := smallRun(t, w, 1, false, "")
		if res.Failed != 0 || res.FailRatio != 0 || res.Error != "" || res.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d error %q", w.name, res.Attempted, res.Failed, res.Error)
		}
		for _, s := range endToEnd {
			if v, ok := res.Metrics[s.Name]; !ok || math.IsNaN(v) || v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive number", w.name, s.Name, v)
			}
		}
		if res.Array == 0 || res.Cache == 0 || res.Ratio == 0 || res.InputHash == "" {
			t.Errorf("%s: result row lacks geometry or input hash: %+v", w.name, res)
		}
	}
}

func TestTracedRunReportsEveryLayerMetric(t *testing.T) {
	dir := t.TempDir()
	res := runChild(childOpts{w: findWorkload("kv_read"), seed: 1, seconds: 1, scale: testScale, traced: true, outdir: dir}, io.Discard)
	if res.Failed != 0 || res.Error != "" {
		t.Fatalf("failed %d error %q", res.Failed, res.Error)
	}
	for _, s := range perLayer {
		if _, ok := res.Metrics[s.Name]; !ok {
			t.Errorf("per-layer metric %s absent (a missing counter must read null, not vanish)", s.Name)
		}
	}
	// What kv_read exercises must be measured; what it bypasses must be null.
	for _, name := range []string{"kvs.self_share_host", "core.lock.host_share_of_kv_op", "kvs.core_calls_per_op",
		"fabric.msgs_per_op", "core.slow.read_miss_host_ns", "cluster.send_handle_rtt_ns", "trace.overhead_ratio"} {
		if v := res.Metrics[name]; math.IsNaN(v) || v <= 0 {
			t.Errorf("%s = %v, want a positive number", name, v)
		}
	}
	for _, name := range []string{"engine.pagerank_iter_host_ms", "core.bulk.getrange_host_us_p50"} {
		if v := res.Metrics[name]; !math.IsNaN(v) {
			t.Errorf("%s = %v on kv_read, want null", name, v)
		}
	}
	if v := res.Metrics["buf.outstanding_end"]; v != 0 {
		t.Errorf("buf.outstanding_end = %v after Close, want 0", v)
	}
	for _, f := range []string{"trace-kv_read.json", "trace-kv_read.perfetto.json"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("traced run left no %s: %v", f, err)
		}
	}
}

// The model is frozen and Calibrate unused: array_local's virtual clock
// depends on the seed alone.
func TestLocalVirtualTimeIsExactlyReproducible(t *testing.T) {
	w := findWorkload("array_local")
	a, b, other := smallRun(t, w, 7, false, ""), smallRun(t, w, 7, false, ""), smallRun(t, w, 8, false, "")
	for _, name := range []string{"vt_ops_per_s", "vt_tail_us", "info.vt_p50_us"} {
		if a.Metrics[name] != b.Metrics[name] || a.Metrics[name] <= 0 {
			t.Errorf("%s differs between two runs of one seed: %v vs %v", name, a.Metrics[name], b.Metrics[name])
		}
	}
	if a.Metrics["vt_ops_per_s"] == other.Metrics["vt_ops_per_s"] {
		t.Errorf("vt_ops_per_s is %v for two seeds: the op stream does not depend on the seed", a.Metrics["vt_ops_per_s"])
	}
}

func TestInputHashFollowsSeed(t *testing.T) {
	hash := func(w *workload, seed int64) uint64 {
		b := w.setup(env{seed: seed, scale: testScale, reps: minReps})
		defer b.c.Close()
		return b.inputHash
	}
	for _, w := range workloads {
		if a, b := hash(w, 3), hash(w, 3); a != b {
			t.Errorf("%s: one seed, two input hashes %x %x", w.name, a, b)
		}
		if a, b := hash(w, 3), hash(w, 4); a == b {
			t.Errorf("%s: two seeds, one input hash %x", w.name, a)
		}
	}
}

func TestInjectedVerifierFailureIsCounted(t *testing.T) {
	res := smallRun(t, findWorkload("graph_pagerank"), 1, false, "verify")
	if res.Failed == 0 || res.FailRatio <= 0 {
		t.Fatalf("failed %d fail_ratio %v, want both positive", res.Failed, res.FailRatio)
	}
}

func TestInjectedPanicIsCountedBySupervisor(t *testing.T) {
	dir := t.TempDir()
	o := childOpts{w: findWorkload("array_rand"), seed: 1, seconds: 1, scale: testScale, inject: "panic", outdir: dir}
	res := supervise(o)
	if res.Error == "" || !strings.Contains(res.Error, "child died") {
		t.Fatalf("error %q, want the child's death reported", res.Error)
	}
	// The panic hits the second of the planned reps: one rep's ops are done.
	perRep := res.Attempted / int64(o.w.repsFor(o.seconds))
	if res.Attempted <= 1 || res.Failed != res.Attempted-perRep {
		t.Errorf("attempted %d failed %d, want every op after the first rep (%d ops) failed", res.Attempted, res.Failed, perRep)
	}
	log, err := os.ReadFile(filepath.Join(dir, "crash-array_rand.log"))
	if err != nil || !bytes.Contains(log, []byte("injected panic")) {
		t.Errorf("crash log: %v, %q", err, log)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, want any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	fromCode, _ := json.Marshal(benchmarkSpec())
	if err := json.Unmarshal(fromCode, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, want) {
		t.Error("BENCHMARK.json differs from spec.go; regenerate it with `bash benchmark/run.sh -spec > BENCHMARK.json`")
	}

	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, s := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		check(s.Name)
		if !unit.MatchString(s.Unit) || (s.Better != hi && s.Better != lo) {
			t.Errorf("%s: unit %q better %q", s.Name, s.Unit, s.Better)
		}
	}
	for _, s := range endToEnd {
		if s.Bound <= 0 || s.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", s.Name, s.Bound)
		}
		hasSetup = hasSetup || (s.Name == "setup_s" && s.Unit == "s" && s.Better == lo)
	}
	if !hasSetup || len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("contract limits: setup_s %v, %d workloads, %d end-to-end, %d per-layer", hasSetup, len(workloads), len(endToEnd), len(perLayer))
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	for _, c := range []struct {
		in     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, 1.25, 5.75},
		{[]float64{10, 11, 12}, 10, 12},
	} {
		if q1, q3 := quartiles(c.in); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; statistics.quantiles gives %v, %v", c.in, q1, q3, c.q1, c.q3)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	tput := metricSpec{Name: "host_ops_per_s", Better: hi, Bound: 0.10}
	lat := metricSpec{Name: "host_p50_us", Better: lo, Bound: 0.10}
	for _, c := range []struct {
		s    metricSpec
		a, b []float64
		want string
	}{
		{tput, []float64{100, 101, 99}, []float64{95, 96, 94}, verdictWithin},
		{tput, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},
		{tput, []float64{100, 101, 99}, []float64{120, 121, 119}, verdictBetter},
		{lat, []float64{10, 10.1, 9.9}, []float64{12, 12.1, 11.9}, verdictWorse},
		{lat, []float64{10, 10.1, 9.9}, []float64{8, 8.1, 7.9}, verdictBetter},
		{lat, []float64{10, 14, 6}, []float64{12, 12.1, 11.9}, verdictUnresolved},
		{lat, nil, []float64{12}, verdictNoData},
	} {
		if got := judge(c.s, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %q, want %q", c.s.Name, c.a, c.b, got, c.want)
		}
	}

	// End to end through files: B is 30% slower on one workload.
	dir := t.TempDir()
	write := func(name string, scale float64) string {
		rep := &report{Seed: 1}
		for _, w := range workloads {
			for i := 0; i < 3; i++ {
				m := metrics{}
				for _, s := range endToEnd {
					m[s.Name] = 100 + float64(i)
				}
				if w.name == "kv_read" {
					m["host_ops_per_s"] *= scale
				}
				rep.Results = append(rep.Results, &runResult{Workload: w.name, Attempted: 10, Metrics: m})
			}
		}
		path := filepath.Join(dir, name)
		if err := rep.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.json", 1), write("same.json", 1), write("slow.json", 0.7)
	var out bytes.Buffer
	if worse, err := compareFiles(&out, a, same); err != nil || worse {
		t.Errorf("identical sets: worse=%v err=%v\n%s", worse, err, out.String())
	}
	out.Reset()
	if worse, err := compareFiles(&out, a, slow); err != nil || !worse || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("30%% slower set: worse=%v err=%v\n%s", worse, err, out.String())
	}
}
