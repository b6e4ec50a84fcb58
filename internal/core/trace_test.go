package core

import (
	"strings"
	"testing"

	"darray/internal/cluster"
	"darray/internal/trace"
)

// kindsOf names the kinds of evs, in order.
func kindsOf(evs []TraceEvent) []string {
	var kinds []string
	for _, e := range evs {
		kinds = append(kinds, kindName(e.Kind))
	}
	return kinds
}

func TestTraceRecordsProtocolEvents(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			_ = a.Get(ctx, 0) // remote read: local-req at 1, read-req at 0
		}
		c.Barrier(ctx)
		kinds := kindsOf(a.TraceEvents())
		joined := strings.Join(kinds, ",")
		if n.ID() == 1 && !strings.Contains(joined, "local-req") {
			t.Errorf("requester trace missing local-req: %v", kinds)
		}
		if n.ID() == 1 && !strings.Contains(joined, "data-resp") {
			t.Errorf("requester trace missing data-resp: %v", kinds)
		}
		if n.ID() == 0 && !strings.Contains(joined, "read-req") {
			t.Errorf("home trace missing read-req: %v", kinds)
		}
		c.Barrier(ctx)
	})
}

// The ring keeps the last traceDepth events of its runtime, oldest first,
// numbered without a gap.
func TestTraceRingWraps(t *testing.T) {
	const chunks = 200 // remote reads: well over traceDepth events on one runtime
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.RuntimeThreads = 1 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*chunks)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			for i := int64(0); i < 64*chunks; i += 64 {
				_ = a.Get(ctx, i)
			}
			evs := a.TraceEvents()
			if len(evs) != traceDepth {
				t.Fatalf("ring returned %d events, want %d", len(evs), traceDepth)
			}
			if evs[0].Seq <= 1 {
				t.Errorf("oldest event has seq %d: the ring never wrapped", evs[0].Seq)
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq != evs[i-1].Seq+1 {
					t.Fatalf("seq %d follows %d", evs[i].Seq, evs[i-1].Seq)
				}
			}
		}
		c.Barrier(ctx)
	})
}

// Recording is one store into the ring: no allocation.
func TestTraceRecordAllocatesNothing(t *testing.T) {
	var s rtState
	tcx := trace.Ctx{Trace: 1, Span: 2}
	if got := testing.AllocsPerRun(1000, func() { s.record(msgReadReq, 3, 1, 40, tcx) }); got != 0 {
		t.Errorf("record allocates %.2f per event, want 0", got)
	}
}

// The lock messages are served through handleMsg like the data
// protocol's, and recorded like them: a reader's requests and grants
// until it holds a lease, the recall and release a writer at the home
// causes, a second writer's declined fill, and the releases.
func TestTraceRecordsLockTraffic(t *testing.T) {
	const idx = 7 // chunk 0, homed on node 0
	c := tc(t, 2)
	held := make(chan struct{})
	runBounded(t, c, func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			readPairs(a, ctx, idx, 2) // the first grant leases, the second pair is a hit
			settle(t, a)
			if !holdsLease(a, idx) {
				t.Error("no lease after the read run")
			}
		}
		c.Barrier(ctx)
		switch n.ID() {
		case 0:
			a.WLock(ctx, idx) // recalls node 1's lease
			close(held)
			await(func() bool { return a.Metrics.FillDeclines.Load() == 1 })
			a.Unlock(ctx, idx)
		case 1:
			<-held
			a.WLock(ctx, idx) // asks for the chunk: declined, the lock is held
			a.Unlock(ctx, idx)
		}
		validateAll(t, c, a, ctx)
		if n.ID() == 0 {
			joined := strings.Join(kindsOf(MergedTrace(a.Instances()...)), ",")
			for _, k := range []uint8{msgLockReq, msgLockGrant, msgLeaseRecall, msgLeaseRelease, msgFillDecline, msgUnlock} {
				if !strings.Contains(joined, kindName(k)) {
					t.Errorf("merged trace has no %s: %s", kindName(k), joined)
				}
			}
		}
		c.Barrier(ctx)
	})
}

// A protocol panic names the chunk's own recent events on the runtime
// that serves it, and none of its neighbours'.
func TestPanicCarriesChunkEvents(t *testing.T) {
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.RuntimeThreads, cfg.PrefetchAhead = 1, -1 })
	c.Run(func(n *cluster.Node) {
		a := New(n, 4*64) // chunks 0 and 1 homed on node 0
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			_ = a.Get(ctx, 0)
			_ = a.Get(ctx, 64)
			msg := make(chan string)
			a.rtOf(0).Submit(func(rt *cluster.Runtime) {
				defer func() { msg <- recover().(string) }()
				a.rstate(rt).panicChunk(0, "core: broken on purpose")
			})
			got := <-msg
			for _, want := range []string{"core: broken on purpose", "chunk 0 on node 1 runtime 0",
				"chunk 0 local-req", "chunk 0 data-resp"} {
				if !strings.Contains(got, want) {
					t.Errorf("panic message lacks %q:\n%s", want, got)
				}
			}
			if strings.Contains(got, "chunk 1 ") {
				t.Errorf("panic message for chunk 0 lists chunk 1's events:\n%s", got)
			}
		}
		c.Barrier(ctx)
	})
}

func TestTraceEventString(t *testing.T) {
	e := TraceEvent{Seq: 3, Node: 1, Runtime: 1, Chunk: 7, Kind: msgReadReq, From: 2}
	s := e.String()
	for _, want := range []string{"#3", "n1/rt1", "chunk 7", "read-req", "from=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := uint8(0); k < numKinds; k++ {
		if kindName(k) == "" {
			t.Errorf("kind %d has no name", k)
		}
	}
	if kindName(200) != "kind-200" {
		t.Error("unknown kind should fall back to numeric form")
	}
}
