package bench

import "testing"

// TestSingleNodeSweepsAreExact pins the microbenchmark rows that cross
// no fabric: at one node and one thread every access is a home-local
// hit, so a sweep's virtual duration is its closed form in the model's
// CPU fields, with no tolerance.
func TestSingleNodeSweepsAreExact(t *testing.T) {
	p := tinyParams()
	m := fixtureModel()
	words := p.WordsPerNode
	chunks := words / 512
	seq := map[string]map[string]int64{
		"darray": {
			"read":    words * m.GetHit,
			"write":   words * m.SetHit,
			"operate": words * m.ApplyHit,
		},
		"darray-pin": {
			"read":    chunks*m.GetHit + words*m.PinAccess,
			"write":   chunks*m.GetHit + words*m.PinAccess,
			"operate": chunks*m.GetHit + words*(m.PinAccess+m.ApplyHit-m.GetHit),
		},
		"gam": {
			"read":    words * (m.GetHit + m.GamAccess),
			"write":   words * (m.SetHit + m.GamAccess),
			"operate": words * (m.GetHit + 2*m.PinAccess + 2*m.GamAccess),
		},
		"bcl": {
			"read":  words * m.BclLocal,
			"write": words * m.BclLocal,
		},
	}
	for sys, ops := range seq {
		for op, want := range ops {
			if got := runSeq(p, sys, op, 1, 1); got.dur() != want || got.ops != words {
				t.Errorf("runSeq %s %s: %d ops in %d vns, want %d in %d", sys, op, got.ops, got.dur(), words, want)
			}
			if sys == "darray-pin" {
				continue // Fig. 18 has no pinned row
			}
			if got, want := runRandom(p, sys, op, 1), float64(want)/float64(words); got != want {
				t.Errorf("runRandom %s %s: %v vns per op, want %v", sys, op, got, want)
			}
		}
	}
}
