package bench

import (
	"math"
	"sort"

	"darray/internal/cluster"
	"darray/internal/core"
	"darray/internal/fault"
	"darray/internal/stats"
)

// Multi-stream contention experiment: the congestion-control headline.
// N application threads on one node each stream a disjoint slice of the
// peer node's partition through GetRange, so every stream's pipeline
// crosses the same link at once. The streams are deliberately
// heterogeneous — even threads are bulk streams issuing deep 16-chunk
// slabs, odd threads are interactive streams issuing shallow 2-chunk
// slabs — because that is where static windows fail: every bulk stream
// keeps its full configured depth outstanding, the shared wire builds a
// standing queue, and the shallow streams' few outstanding chunks drown
// behind it (bufferbloat). The adaptive controller sees the inflating
// round trips and shrinks the bulk windows until queueing subsides, so
// shallow slabs stop paying for depth they never posted.
//
// Observables, all in virtual time: per-chunk-normalized slab latency
// (mean and p99, pooled across streams), Jain's fairness index over
// per-stream delivery rates, aggregate throughput, and — under a seeded
// loss plan — the fabric's go-back-N retransmission count. Fairness and
// latency are evaluated over the common contention window [start, T*]
// where T* is the first stream's completion, so every sample was taken
// while all N streams were still competing.

// contentionResult is one (streams, mode) contention measurement.
type contentionResult struct {
	streams int
	meanNs  float64 // mean per-chunk slab latency inside the contention window
	p99Ns   float64 // p99 per-chunk slab latency inside the contention window
	jain    float64 // Jain's fairness index over per-stream delivery rates
	mwords  float64 // aggregate Mwords/s over the contention window
	retrans int64   // fabric go-back-N retransmissions (faulted runs)
}

// Slab granularities. Bulk slabs are larger than the default pipeline
// depth, so the window (fixed or adaptive) is what actually limits a
// bulk stream's outstanding fetches; interactive slabs are latency
// bound and never fill a window.
const (
	contBulkChunks        = 16
	contInteractiveChunks = 2
)

// slabRec is one completed slab: when it finished and what it carried.
type slabRec struct {
	endVT  int64
	chunks int64
	ns     int64 // slab duration
}

// runContention measures `streams` concurrent remote GetRange streams
// between two nodes under the adaptive controller or, with adaptive
// false, cc.Fixed windows at their ceilings, whatever the cluster
// template says. faulted runs the same traffic over a seeded 2% loss +
// 1% duplication plan, in place of any plan the template supplies, and
// reports the retransmission bill.
func runContention(p Params, streams int, adaptive, faulted bool) contentionResult {
	const nodes = 2
	const chunkWords = 512   // cluster default chunk geometry
	sWords := p.WordsPerNode // per-stream volume, constant across N
	words := int64(nodes) * int64(streams) * sWords
	var plan *fault.Plan
	if faulted {
		plan = fault.New(fault.Config{Seed: 42, Nodes: nodes, DropProb: 0.02, DupProb: 0.01})
	}
	c := p.cluster(nodes, func(cfg *cluster.Config) {
		cfg.CacheChunks, cfg.AdaptiveCC = 256, adaptive
		if faulted {
			cfg.Faults = plan
		}
	})
	defer c.Close()

	recs := make([][]slabRec, streams)
	starts := make([]int64, streams)
	c.Run(func(n *cluster.Node) {
		a := core.New(n, words)
		ctx0 := n.NewCtx(0)
		c.Barrier(ctx0)
		if n.ID() == 1 {
			n.RunThreads(streams, func(ctx *cluster.Ctx) {
				// Stream TID owns slice TID of node 0's partition: all
				// streams contend for the same 0<->1 link and home runtimes.
				lo := int64(ctx.TID) * sWords
				slabWords := int64(contBulkChunks * chunkWords)
				if ctx.TID%2 == 1 {
					slabWords = contInteractiveChunks * chunkWords
				}
				if slabWords > sWords {
					slabWords = sWords
				}
				buf := make([]uint64, slabWords)
				log := make([]slabRec, 0, sWords/slabWords)
				starts[ctx.TID] = ctx.Clock.Now()
				for off := int64(0); off+slabWords <= sWords; off += slabWords {
					t0 := ctx.Clock.Now()
					a.GetRange(ctx, lo+off, buf)
					end := ctx.Clock.Now()
					log = append(log, slabRec{endVT: end, chunks: slabWords / chunkWords, ns: end - t0})
				}
				recs[ctx.TID] = log
			})
		}
		c.Barrier(ctx0)
	})

	// T*: the first completion — until then every stream was competing.
	tStar, minStart := int64(math.MaxInt64), int64(math.MaxInt64)
	for s, log := range recs {
		if n := len(log); n > 0 && log[n-1].endVT < tStar {
			tStar = log[n-1].endVT
		}
		if len(log) > 0 && starts[s] < minStart {
			minStart = starts[s]
		}
	}
	// Latency samples skip a quarter-window warmup: slow start (and the
	// fixed mode's initial burst pile-up) is a startup transient, and the
	// experiment compares steady-state contention behaviour. Rates and
	// throughput still cover the whole window.
	warmVT := minStart + (tStar-minStart)/4
	r := contentionResult{streams: streams}
	var all []float64
	var rates []float64
	var sumChunks int64
	for s, log := range recs {
		var chunks int64
		for _, rec := range log {
			if rec.endVT > tStar {
				break // past the contention window
			}
			chunks += rec.chunks
			if rec.endVT > warmVT {
				all = append(all, float64(rec.ns)/float64(rec.chunks))
			}
		}
		if win := tStar - starts[s]; win > 0 && chunks > 0 {
			rates = append(rates, float64(chunks)/float64(win))
		}
		sumChunks += chunks
	}
	sort.Float64s(all)
	if len(all) > 0 {
		var sum float64
		for _, v := range all {
			sum += v
		}
		r.meanNs = sum / float64(len(all))
		r.p99Ns = all[len(all)*99/100]
	}
	r.jain = jainIndex(rates)
	r.mwords = stats.Throughput(sumChunks*chunkWords, tStar-minStart) / 1e6
	if plan != nil {
		r.retrans = plan.Stats().Retransmits
	}
	return r
}

// jainIndex returns Jain's fairness index (sum x)^2 / (n * sum x^2):
// 1.0 when every stream got an equal share, 1/n when one stream got
// everything.
func jainIndex(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum, sq float64
	for _, x := range xs {
		sum += x
		sq += x * x
	}
	if sq == 0 {
		return 0
	}
	return sum * sum / (float64(len(xs)) * sq)
}

// contStreams is the stream-count sweep, clipped to keep tiny CI
// configs meaningful (each stream still needs a few slabs).
var contStreams = []int{1, 2, 4, 8}

// Contention is the multi-stream contention experiment: adaptive
// congestion windows vs the fixed-depth knobs as concurrent bulk
// streams share one link, plus the retransmission bill under a seeded
// loss plan.
func Contention(p Params) []stats.Table {
	p99 := stats.Table{
		Title:  "Contention: p99 per-slab GetRange latency (virtual ns) vs concurrent streams",
		XLabel: "streams",
		YFmt:   "%.0f",
	}
	fair := stats.Table{
		Title:  "Contention: Jain's fairness index over per-stream throughput",
		XLabel: "streams",
		YFmt:   "%.4f",
	}
	tput := stats.Table{
		Title:  "Contention: aggregate throughput (Mwords/s, virtual) vs concurrent streams",
		XLabel: "streams",
		YFmt:   "%.2f",
	}
	p99.Xs, fair.Xs, tput.Xs = labels(contStreams), labels(contStreams), labels(contStreams)
	var aP99, fP99, aJain, fJain, aTput, fTput []float64
	for _, n := range contStreams {
		adaptive := runContention(p, n, true, false)
		fixed := runContention(p, n, false, false)
		aP99 = append(aP99, adaptive.p99Ns)
		fP99 = append(fP99, fixed.p99Ns)
		aJain = append(aJain, adaptive.jain)
		fJain = append(fJain, fixed.jain)
		aTput = append(aTput, adaptive.mwords)
		fTput = append(fTput, fixed.mwords)
	}
	p99.Series = []stats.Series{{Label: "adaptive", Ys: aP99}, {Label: "fixed", Ys: fP99}}
	fair.Series = []stats.Series{{Label: "adaptive", Ys: aJain}, {Label: "fixed", Ys: fJain}}
	tput.Series = []stats.Series{{Label: "adaptive", Ys: aTput}, {Label: "fixed", Ys: fTput}}

	aLoss := runContention(p, 4, true, true)
	fLoss := runContention(p, 4, false, true)
	loss := stats.Table{
		Title:  "Contention under 2% loss: go-back-N retransmissions, 4 streams",
		XLabel: "mode",
		Xs:     []string{"retransmits", "p99-ns"},
		YFmt:   "%.0f",
		Series: []stats.Series{
			{Label: "adaptive", Ys: []float64{float64(aLoss.retrans), aLoss.p99Ns}},
			{Label: "fixed", Ys: []float64{float64(fLoss.retrans), fLoss.p99Ns}},
		},
	}
	return []stats.Table{p99, fair, tput, loss}
}
