package bench

import "testing"

// TestContentionCrossover gates the congestion-control headline: with
// heterogeneous streams sharing one link, adaptive windows must beat
// the fixed pipeline knobs on tail latency and fairness, and a lone
// stream must not pay for the machinery.
//
// The p99 gate runs at 8 streams (stable across scheduler interleavings
// at this scale); 4 streams is additionally gated on mean latency and
// fairness, whose contrast is scheduler-robust, because its p99 sits on
// a handful of tail slabs that flip between runs.
func TestContentionCrossover(t *testing.T) {
	if raceEnabled {
		t.Skip("statistical latency shape is perturbed under the race detector")
	}
	p := tinyParams()
	p.WordsPerNode = 1 << 18 // 32 bulk slabs per stream: steady state dominates

	// Lone stream: adaptive throughput within 5% of the fixed knobs.
	a1 := runContention(p, 1, true, false)
	f1 := runContention(p, 1, false, false)
	if a1.mwords < 0.95*f1.mwords {
		t.Errorf("single-stream: adaptive %.2f Mwords/s < 95%% of fixed %.2f", a1.mwords, f1.mwords)
	}

	// 4 streams: adaptive must be fairer and faster on mean latency.
	a4 := runContention(p, 4, true, false)
	f4 := runContention(p, 4, false, false)
	if a4.jain <= f4.jain {
		t.Errorf("4 streams: adaptive fairness %.4f <= fixed %.4f", a4.jain, f4.jain)
	}
	if a4.meanNs >= f4.meanNs {
		t.Errorf("4 streams: adaptive mean %.0fns >= fixed %.0fns", a4.meanNs, f4.meanNs)
	}

	// 8 streams: the headline — >=1.3x better p99 and higher fairness.
	a8 := runContention(p, 8, true, false)
	f8 := runContention(p, 8, false, false)
	if f8.p99Ns < 1.3*a8.p99Ns {
		t.Errorf("8 streams: fixed p99 %.0fns < 1.3x adaptive %.0fns (ratio %.2f)",
			f8.p99Ns, a8.p99Ns, f8.p99Ns/a8.p99Ns)
	}
	if a8.jain <= f8.jain {
		t.Errorf("8 streams: adaptive fairness %.4f <= fixed %.4f", a8.jain, f8.jain)
	}

	// Under a seeded loss plan both modes retransmit (the plan's drops
	// are fault-driven, not congestion-driven): the bill must be within
	// 2x of each other, and adaptive must not blow up the tail.
	al := runContention(p, 4, true, true)
	fl := runContention(p, 4, false, true)
	if al.retrans == 0 || fl.retrans == 0 {
		t.Errorf("faulted runs retransmitted nothing: adaptive=%d fixed=%d", al.retrans, fl.retrans)
	}
	if al.p99Ns > 2*fl.p99Ns {
		t.Errorf("faulted: adaptive p99 %.0fns > 2x fixed %.0fns", al.p99Ns, fl.p99Ns)
	}
}
