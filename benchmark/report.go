package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"
)

// report is what -all writes and -compare reads.
type report struct {
	Created string       `json:"created"`
	Seed    int64        `json:"seed"`
	Seconds float64      `json:"seconds"`
	Host    hostMeta     `json:"host"`
	Results []*runResult `json:"results"` // every run of every workload, traced ones flagged
}

func newReport(o childOpts) *report {
	return &report{Created: time.Now().UTC().Format(time.RFC3339), Seed: o.seed, Seconds: o.seconds, Host: thisHost()}
}

// runAll runs every workload `runs` times untraced and once traced,
// each run in its own child, prints every metric by name with its unit,
// and reports whether every op of every run succeeded. One workload's
// crash does not stop the others.
func runAll(opts func(w *workload, traced bool) childOpts, runs int, outFile string) bool {
	rep := newReport(opts(workloads[0], false))
	ok := true
	for _, w := range workloads {
		for r := 0; r < runs+1; r++ {
			traced := r == runs
			fmt.Fprintf(os.Stderr, "benchmark: %s run %d/%d traced=%v\n", w.name, r+1, runs+1, traced)
			res := supervise(opts(w, traced))
			rep.Results = append(rep.Results, res)
			if res.Failed != 0 || res.Error != "" {
				ok = false
			}
		}
	}
	rep.print(os.Stdout)
	if outFile != "" {
		if err := rep.write(outFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
	}
	return ok
}

func (rep *report) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", " ")
	if err := enc.Encode(rep); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	rep := &report{}
	if err := json.Unmarshal(data, rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rep, nil
}

// values collects one metric of one workload over the untraced (or the
// traced) runs that measured it.
func (rep *report) values(workload, metric string, traced bool) []float64 {
	var vs []float64
	for _, r := range rep.Results {
		if r.Workload != workload || r.Traced != traced {
			continue
		}
		if v, ok := r.Metrics[metric]; ok && !math.IsNaN(v) {
			vs = append(vs, v)
		}
	}
	return vs
}

// failRatio is failed/attempted over every run of a workload.
func (rep *report) failRatio(workload string) float64 {
	var failed, attempted int64
	for _, r := range rep.Results {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	return float64(failed) / float64(max(attempted, 1))
}

func (rep *report) print(w io.Writer) {
	fmt.Fprintf(w, "seed %d, %g s per run, nproc %d, GOMAXPROCS %d, %s, commit %s\n",
		rep.Seed, rep.Seconds, rep.Host.NumCPU, rep.Host.GOMAXPROCS, rep.Host.GoVersion, rep.Host.Commit)
	for _, wl := range workloads {
		var row *runResult
		for _, r := range rep.Results {
			if r.Workload == wl.name && !r.Traced {
				row = r
			}
		}
		if row == nil {
			continue
		}
		fmt.Fprintf(w, "\n== %s: %s\n", wl.name, wl.why)
		fmt.Fprintf(w, "   input %s; timed unit: %s; %d reps x %d ops, %d latency samples; array %d words / cache %d words per node = %.2fx\n",
			row.InputHash, row.Unit, row.Reps, row.OpsPerRep, row.Samples, row.Array, row.Cache, row.Ratio)
		for _, r := range rep.Results {
			if r.Workload == wl.name && r.Error != "" {
				fmt.Fprintf(w, "   ERROR (traced=%v): %s\n", r.Traced, r.Error)
			}
		}
		fmt.Fprintf(w, "   %-32s %14s %-6s %s\n", "end to end", "median", "unit", "bound")
		for _, s := range endToEnd {
			printMetric(w, s, rep.values(wl.name, s.Name, false))
		}
		fmt.Fprintf(w, "   %-32s %14.6g %-6s %s\n", "fail_ratio", rep.failRatio(wl.name), "1", "0 (absolute)")
		for _, i := range infoMetrics {
			for _, name := range []string{"info.host_" + i.name, "info.vt_" + i.name} {
				printMetric(w, metricSpec{Name: name, Unit: "us"}, rep.values(wl.name, name, false))
			}
		}
		fmt.Fprintf(w, "   %-32s %14s %-6s\n", "per layer (traced run)", "value", "unit")
		for _, s := range perLayer {
			printMetric(w, s, rep.values(wl.name, s.Name, true))
		}
	}
}

func printMetric(w io.Writer, s metricSpec, vs []float64) {
	bound := ""
	if s.Bound > 0 {
		bound = fmt.Sprintf("%.3g%%", 100*s.Bound)
	}
	if len(vs) == 0 {
		fmt.Fprintf(w, "   %-32s %14s %-6s %s\n", s.Name, "null", s.Unit, bound)
		return
	}
	fmt.Fprintf(w, "   %-32s %14.6g %-6s %s\n", s.Name, median(vs), s.Unit, bound)
}

// runSpread is the acceptance check of the instrument itself: n
// untraced runs of every workload, each on another seed, and for every
// end-to-end metric the interquartile range of its n values as a share
// of their median (the same statistic a driver accepts or refuses the
// benchmark on). It reports whether every spread except setup_s's
// stays within its metric's bound.
func runSpread(opts func(w *workload, traced bool) childOpts, n int, outFile string) bool {
	rep := newReport(opts(workloads[0], false))
	ok := true
	for _, w := range workloads {
		for i := 0; i < n; i++ {
			o := opts(w, false)
			o.seed += int64(i)
			fmt.Fprintf(os.Stderr, "benchmark: %s seed %d (%d/%d)\n", w.name, o.seed, i+1, n)
			res := supervise(o)
			rep.Results = append(rep.Results, res)
			if res.Failed != 0 || res.Error != "" {
				fmt.Fprintf(os.Stderr, "benchmark: %s seed %d: %d ops failed %s\n", w.name, o.seed, res.Failed, res.Error)
				ok = false
			}
		}
	}
	fmt.Printf("%-15s %-19s %-6s %14s %9s %7s  %s\n", "workload", "metric", "unit", "median", "spread", "bound", "")
	for _, w := range workloads {
		for _, s := range endToEnd {
			vs := rep.values(w.name, s.Name, false)
			if len(vs) < 2 {
				continue
			}
			sp, note := spread(vs), ""
			switch {
			case sp > s.Bound && s.Name != "setup_s":
				note, ok = "WIDER THAN ITS BOUND", false
			case sp > s.Bound/3:
				note = "above a third of its bound"
			}
			fmt.Printf("%-15s %-19s %-6s %14.6g %8.2f%% %6.3g%%  %s\n", w.name, s.Name, s.Unit, median(vs), 100*sp, 100*s.Bound, note)
		}
	}
	if outFile != "" {
		if err := rep.write(outFile); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			ok = false
		}
	}
	return ok
}
