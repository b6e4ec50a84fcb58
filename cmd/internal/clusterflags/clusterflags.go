// Package clusterflags declares, once, the cluster flags the three
// commands share — the transport depths, the congestion-control and
// shipping modes, fault injection, telemetry and tracing — and turns
// them into a cluster.Config.
package clusterflags

import (
	"flag"
	"fmt"
	"io"
	"sync"

	"darray/internal/chaos"
	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/fault"
	"darray/internal/trace"
	"darray/internal/vtime"
)

// Flags holds the parsed values. Build it with Register before
// flag.Parse.
type Flags struct {
	TxBurst     int
	Pipeline    int
	Prefetch    int
	AdaptiveCC  bool
	Ship        string
	Chaos       bool
	ChaosSeed   int64
	Metrics     bool
	TraceOut    string
	TraceSample int

	tracer *trace.Tracer

	mu    sync.Mutex // bench builds clusters from concurrent experiments
	plans []*fault.Plan
}

// Register declares the shared flags on fs.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.IntVar(&f.TxBurst, "tx-burst", 0, "work requests per doorbell in the Tx thread (0 default, 1 or -1 disables batching); a ceiling under -adaptive-cc")
	fs.IntVar(&f.Pipeline, "pipeline", 0, "outstanding chunk fetches per bulk range (0 default, 1 or -1 one at a time); a ceiling under -adaptive-cc")
	fs.IntVar(&f.Prefetch, "prefetch", 0, "chunks prefetched on a sequential miss (0 default, -1 disables prefetch and the detector)")
	fs.BoolVar(&f.AdaptiveCC, "adaptive-cc", false, "adaptive congestion control: CUBIC plus Vegas windows below -pipeline and -tx-burst (default: fixed windows at those depths)")
	fs.StringVar(&f.Ship, "ship", "auto", "function-shipping mode: auto (per-chunk contention estimator), on, off")
	fs.BoolVar(&f.Chaos, "chaos", false, "inject seeded fabric faults: drops, dups, spikes, a partition window, a stalled node (enables the virtual-time model: fault windows are vtime-keyed)")
	fs.Int64Var(&f.ChaosSeed, "chaos-seed", 1, "fault plan seed for -chaos; the same seed replays the same plan")
	fs.BoolVar(&f.Metrics, "metrics", false, "collect telemetry and print the report after the run")
	fs.StringVar(&f.TraceOut, "trace-out", "", "record causal spans and write a Perfetto-loadable Chrome trace to this file (enables the virtual-time model)")
	fs.IntVar(&f.TraceSample, "trace-sample", 1, "with -trace-out, sample every Nth public op as a trace root")
	return f
}

// Tracer returns the tracer -trace-out asks for, enabled at the
// -trace-sample rate, or nil without the flag.
func (f *Flags) Tracer() *trace.Tracer {
	if f.TraceOut != "" && f.tracer == nil {
		f.tracer = trace.New(0)
		f.tracer.Enable(f.TraceSample)
	}
	return f.tracer
}

// Plan returns a fresh -chaos fault plan for a cluster of nodes, or nil
// without the flag. A plan per cluster keeps Nth-message rules and fault
// logs scoped to one cluster's lifetime; ChaosSummary totals them.
func (f *Flags) Plan(nodes int) *fault.Plan {
	if !f.Chaos {
		return nil
	}
	plan := fault.New(chaos.DefaultFaults(f.ChaosSeed, nodes))
	f.mu.Lock()
	f.plans = append(f.plans, plan)
	f.mu.Unlock()
	return plan
}

// Config renders the flags as the configuration of a cluster of nodes.
// Fault windows and spans are keyed by virtual time, so -chaos and
// -trace-out supply the default cost model when the caller sets none.
func (f *Flags) Config(nodes int) cluster.Config {
	cfg := cluster.Config{
		Nodes:         nodes,
		Metrics:       f.Metrics,
		MsgKindName:   core.KindName,
		TxBurst:       f.TxBurst,
		PipelineDepth: f.Pipeline,
		PrefetchAhead: f.Prefetch,
		AdaptiveCC:    f.AdaptiveCC,
		Ship:          f.Ship,
		Faults:        f.Plan(nodes),
		Tracer:        f.Tracer(),
	}
	if cfg.Faults != nil || cfg.Tracer != nil {
		cfg.Model = vtime.Default()
	}
	return cfg
}

// WriteTrace writes the -trace-out file and prints the trace summary and
// stage report to w. It does nothing without the flag.
func (f *Flags) WriteTrace(w io.Writer) error {
	if f.tracer == nil {
		return nil
	}
	if err := f.tracer.WriteFile(f.TraceOut); err != nil {
		return fmt.Errorf("trace-out: %w", err)
	}
	spans := f.tracer.Spans()
	fmt.Fprintf(w, "# trace\nwrote %s (%d spans; load in https://ui.perfetto.dev)\n%s\n%s\n",
		f.TraceOut, len(spans), trace.Summarize(spans), f.tracer.StageReport())
	return nil
}

// ChaosSummary is the one-line account of every plan handed out: the
// seed to replay with and the faults injected.
func (f *Flags) ChaosSummary() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	var total fault.Stats
	for _, plan := range f.plans {
		total = total.Merge(plan.Stats())
	}
	return fmt.Sprintf("chaos: seed=%d clusters=%d %s", f.ChaosSeed, len(f.plans), total)
}
