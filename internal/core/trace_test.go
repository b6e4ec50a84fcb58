package core

import (
	"strings"
	"testing"

	"darray/internal/cluster"
)

func TestTraceRecordsProtocolEvents(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		a.EnableTrace(64)
		c.Barrier(ctx)
		if n.ID() == 1 {
			_ = a.Get(ctx, 0) // remote read: local-req at 1, read-req at 0
		}
		c.Barrier(ctx)
		evs := a.TraceEvents()
		var kinds []string
		for _, e := range evs {
			kinds = append(kinds, e.Kind)
		}
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

func TestTraceRingWraps(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64*8)
		ctx := n.NewCtx(0)
		a.EnableTrace(8)
		c.Barrier(ctx)
		if n.ID() == 1 {
			for i := int64(0); i < 64*8; i += 64 {
				_ = a.Get(ctx, i) // many chunks: > 8 events
			}
			evs := a.TraceEvents()
			if len(evs) != 8 {
				t.Errorf("ring returned %d events, want 8", len(evs))
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].Seq <= evs[i-1].Seq {
					t.Errorf("trace not ordered: %v", evs)
					break
				}
			}
		}
		c.Barrier(ctx)
	})
}

func TestTraceDisabled(t *testing.T) {
	c := tc(t, 2)
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*64)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		_ = a.Get(ctx, 0)
		c.Barrier(ctx)
		if len(a.TraceEvents()) != 0 {
			t.Error("events recorded while tracing disabled")
		}
		a.EnableTrace(4)
		a.DisableTrace()
		if n.ID() == 1 {
			_ = a.Get(ctx, 64)
		}
		c.Barrier(ctx)
		if len(a.TraceEvents()) != 0 {
			t.Error("events recorded after DisableTrace")
		}
		c.Barrier(ctx)
	})
}

func TestTraceEventString(t *testing.T) {
	e := TraceEvent{Seq: 3, Node: 1, Chunk: 7, Kind: "read-req", From: 2}
	s := e.String()
	for _, want := range []string{"#3", "n1", "chunk 7", "read-req", "from=2"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestKindNames(t *testing.T) {
	for k := uint8(0); k < numKinds; k++ {
		if kindName(k) == "" {
			t.Errorf("message kind %d has no name", k)
		}
	}
	if kindName(200) != "kind-200" {
		t.Error("unknown kind should fall back to numeric form")
	}
}
