package bench

import (
	"strings"
	"testing"

	"darray/internal/vtime"
)

// tinyParams keeps every experiment runnable in CI time.
func tinyParams() Params {
	m := vtime.Default()
	// Skip host calibration in tests: fixed plausible CPU costs.
	m.NativeAccess, m.GetHit, m.SetHit, m.ApplyHit = 2, 20, 25, 30
	m.PinAccess, m.GamAccess, m.BclLocal, m.SlowFixed = 5, 40, 6, 100
	m.GeminiEdge = 15
	p := DefaultParams(m)
	p.WordsPerNode = 4096
	p.MaxNodes = 2
	p.Threads = []int{1, 2}
	p.GraphScale = 8
	p.PRIters = 2
	p.KVRecords = 256
	p.KVOps = 50
	p.ZipfOps = 300
	p.RandomOps = 300
	return p
}

// TestEveryExperimentRuns executes the full registry at tiny scale and
// sanity-checks the emitted tables.
func TestEveryExperimentRuns(t *testing.T) {
	p := tinyParams()
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			tables := e.Run(p)
			if len(tables) == 0 {
				t.Fatal("experiment produced no tables")
			}
			for _, tbl := range tables {
				out := tbl.Render()
				if !strings.Contains(out, tbl.Title) {
					t.Errorf("render missing title %q", tbl.Title)
				}
				if len(tbl.Series) == 0 || len(tbl.Xs) == 0 {
					t.Errorf("table %q is empty", tbl.Title)
				}
				for _, s := range tbl.Series {
					for _, y := range s.Ys {
						if y < 0 {
							t.Errorf("table %q series %q has negative value %v",
								tbl.Title, s.Label, y)
						}
					}
				}
			}
		})
	}
}

// TestFigureShapes asserts the headline qualitative claims survive even
// at tiny scale: the reproduction's regression guard.
func TestFigureShapes(t *testing.T) {
	p := tinyParams()

	t.Run("fig1-darray-beats-gam", func(t *testing.T) {
		tbl := Fig1(p)[0]
		vals := map[string][]float64{}
		for _, s := range tbl.Series {
			vals[s.Label] = s.Ys
		}
		// Distributed: BCL worst by far; DArray below GAM; pin below DArray.
		if vals["bcl"][1] < 2*vals["gam"][1] {
			t.Errorf("BCL (%v) should dwarf GAM (%v) distributed", vals["bcl"][1], vals["gam"][1])
		}
		if vals["darray"][1] >= vals["gam"][1] {
			t.Errorf("DArray (%v) should beat GAM (%v)", vals["darray"][1], vals["gam"][1])
		}
		if vals["darray-pin"][1] >= vals["darray"][1] {
			t.Errorf("pin (%v) should beat plain (%v)", vals["darray-pin"][1], vals["darray"][1])
		}
	})

	t.Run("fig14-operate-beats-locks", func(t *testing.T) {
		tbls := Fig14(p)
		tput := tbls[0]
		var op, lk []float64
		for _, s := range tput.Series {
			if s.Label == "operate" {
				op = s.Ys
			} else {
				lk = s.Ys
			}
		}
		last := len(op) - 1
		if op[last] <= lk[last] {
			t.Errorf("operate (%v) should outthroughput locks (%v)", op[last], lk[last])
		}
	})

	t.Run("fig15-pin-speedup", func(t *testing.T) {
		tbl := Fig15(p)[0]
		for _, s := range tbl.Series {
			if s.Label == "speedup" {
				for i, v := range s.Ys {
					if v <= 1 {
						t.Errorf("pin speedup at point %d is %v, want > 1", i, v)
					}
				}
			}
		}
	})

	t.Run("fig17-darray-kvs-wins", func(t *testing.T) {
		if raceEnabled {
			t.Skip("statistical shape assertion; unstable under -race scheduling")
		}
		// Larger workload than the smoke test: per-point numbers are
		// noisy at tiny op counts, so compare aggregate throughput. And the
		// figure's own six nodes: the mechanism it blames for GAM's loss —
		// lock words resident in DSM, their chunks ping-ponging between
		// every node that locks — needs more than two parties to exist.
		// Between two, a lock-word hand-off costs about one DArray lock
		// message, and once both stores read records whole the 50 %-get
		// row there is a tie that host scheduling decides.
		pp := p
		pp.MaxNodes = 6
		pp.KVRecords = 1024
		pp.KVOps = 400
		tbls := Fig17(pp)
		for _, tbl := range tbls {
			var da, ga float64
			for _, s := range tbl.Series {
				for _, y := range s.Ys {
					if s.Label == "darray-kvs" {
						da += y
					} else {
						ga += y
					}
				}
			}
			if da <= ga {
				t.Errorf("%s: aggregate darray-kvs (%v) <= gam-kvs (%v)",
					tbl.Title, da, ga)
			}
		}
	})
}

func TestCalibrateProducesSaneCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration timing loop")
	}
	m := vtime.Default()
	Calibrate(m)
	if m.GetHit <= 0 || m.GamAccess <= 0 || m.PinAccess <= 0 {
		t.Fatalf("calibration left zero costs: %+v", m)
	}
	if m.PinAccess > m.GetHit {
		t.Errorf("pinned access (%d) should not exceed the plain fast path (%d)",
			m.PinAccess, m.GetHit)
	}
}

func TestFindAndRegistry(t *testing.T) {
	if _, ok := Find("fig13"); !ok {
		t.Fatal("fig13 missing from registry")
	}
	if _, ok := Find("nope"); ok {
		t.Fatal("bogus id found")
	}
	ids := map[string]bool{}
	for _, e := range Experiments() {
		if ids[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		ids[e.ID] = true
		if e.Run == nil || e.Title == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for _, want := range []string{"fig1", "fig12", "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "ablation"} {
		if !ids[want] {
			t.Fatalf("registry missing %s", want)
		}
	}
}

func TestRunAndPrint(t *testing.T) {
	var sb strings.Builder
	e, _ := Find("fig15")
	RunAndPrint(&sb, e, tinyParams())
	if !strings.Contains(sb.String(), "Figure 15") {
		t.Fatalf("output missing figure header:\n%s", sb.String())
	}
	PrintModel(&sb, tinyParams())
	if !strings.Contains(sb.String(), "cost model") {
		t.Fatal("PrintModel output missing")
	}
	PrintModel(&sb, Params{})
	if !strings.Contains(sb.String(), "none") {
		t.Fatal("PrintModel nil-model output missing")
	}
}
