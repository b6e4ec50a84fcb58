package main

import (
	"fmt"
	"io"
)

// Verdicts of one workload x end-to-end metric pairing, B against A.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "WORSE"
	verdictBetter     = "better"
	verdictUnresolved = "unresolved" // run-to-run spread exceeds the bound: neither changed nor unchanged
	verdictNoData     = "no data"
)

// worsening is the share of a's median by which b's median is worse.
func worsening(s metricSpec, a, b float64) float64 {
	if s.Better == hi {
		return (a - b) / a
	}
	return (b - a) / a
}

// judge compares one metric's values from two sets of runs.
func judge(s metricSpec, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return verdictNoData
	}
	if len(a) > 1 && spread(a) > s.Bound || len(b) > 1 && spread(b) > s.Bound {
		return verdictUnresolved
	}
	switch w := worsening(s, median(a), median(b)); {
	case w > s.Bound:
		return verdictWorse
	case w < -s.Bound:
		return verdictBetter
	}
	return verdictWithin
}

// compareFiles prints, per workload x end-to-end metric, both medians
// with their quartiles, the ratio with its base, and a verdict, and
// reports whether any pairing is worse. fail_ratio has the absolute
// bound 0: any failed op in B is worse.
func compareFiles(w io.Writer, pathA, pathB string) (worse bool, err error) {
	a, err := readReport(pathA)
	if err != nil {
		return false, err
	}
	b, err := readReport(pathB)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "A = %s (seed %d, commit %s)\nB = %s (seed %d, commit %s)\n",
		pathA, a.Seed, a.Host.Commit, pathB, b.Seed, b.Host.Commit)
	fmt.Fprintf(w, "%-15s %-19s %-6s %12s %25s %12s %25s %9s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A [q1, q3]", "B median", "B [q1, q3]", "B/A", "bound", "verdict")
	for _, wl := range workloads {
		for _, s := range endToEnd {
			va, vb := a.values(wl.name, s.Name, false), b.values(wl.name, s.Name, false)
			v := judge(s, va, vb)
			worse = worse || v == verdictWorse
			if v == verdictNoData {
				fmt.Fprintf(w, "%-15s %-19s %-6s %s\n", wl.name, s.Name, s.Unit, v)
				continue
			}
			a1, a3 := quartiles(va)
			b1, b3 := quartiles(vb)
			fmt.Fprintf(w, "%-15s %-19s %-6s %12.6g %25s %12.6g %25s %8.4fx %5.3g%%  %s\n",
				wl.name, s.Name, s.Unit,
				median(va), fmt.Sprintf("[%.6g, %.6g]", a1, a3),
				median(vb), fmt.Sprintf("[%.6g, %.6g]", b1, b3),
				median(vb)/median(va), 100*s.Bound, v)
		}
		fa, fb := a.failRatio(wl.name), b.failRatio(wl.name)
		v := verdictWithin
		if fb > 0 {
			v, worse = verdictWorse, true
		}
		fmt.Fprintf(w, "%-15s %-19s %-6s %12.6g %25s %12.6g %25s %9s %6s  %s\n",
			wl.name, "fail_ratio", "1", fa, "", fb, "", "", "0", v)
	}
	return worse, nil
}
