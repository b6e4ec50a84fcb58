package core

import (
	"sync"
	"sync/atomic"
	"testing"

	"darray/internal/cluster"
	"darray/internal/fabric"
	"darray/internal/vtime"
)

// Payload-free write grants: a SetRange that covers a whole remote
// chunk asks the home for permission only, and the requester's runtime
// installs the caller's words. The tests below pin down what the wire
// carries and what every node reads afterwards.

// hdrBytes is the wire size of a payload-free protocol message.
var hdrBytes = int64((&fabric.Message{}).Bytes())

// sent snapshots what node v has put on the wire so far.
type sent struct{ msgs, bytes, grants int64 }

func sentBy(c *cluster.Cluster, v int) sent {
	st := c.Node(v).Endpoint().Stats()
	return sent{st.MsgsSent.Load(), st.BytesSent.Load(), st.KindCount(msgDataResp)}
}

func (s sent) since(o sent) sent {
	return sent{s.msgs - o.msgs, s.bytes - o.bytes, s.grants - o.grants}
}

// TestOverwriteGrantDirectoryStates overwrites four whole chunks homed
// on node 0 from node 1, starting from each directory state the home
// can be in. The home must run the usual transition (invalidate the
// sharers, recall the Dirty owner) and then answer with grants that
// carry no payload; afterwards every node reads the new words, and the
// neighbouring chunk keeps the old ones.
func TestOverwriteGrantDirectoryStates(t *testing.T) {
	const (
		cw    = 64
		per   = 8 // chunks homed per node
		whole = 4 // chunks overwritten
	)
	oldv := func(i int) uint64 { return uint64(1_000_000 + i) }
	midv := func(i int) uint64 { return uint64(2_000_000 + i) }
	newv := func(i int) uint64 { return uint64(3_000_000 + i) }
	cases := []struct {
		name  string
		who   int  // node that touches the chunks first (-1: nobody)
		write bool // ... with a SetRange (leaving them Dirty there) instead of a GetRange
	}{
		{"unshared", -1, false},
		{"shared-by-requester", 1, false},
		{"shared-by-third", 2, false},
		{"dirty-on-third", 2, true},
	}
	for _, tcase := range cases {
		tcase := tcase
		t.Run(tcase.name, func(t *testing.T) {
			c := tc(t, 3, func(cfg *cluster.Config) {
				cfg.PrefetchAhead = -1 // only the chunks a case names change state
				cfg.TxBurst = -1       // a coalesced invalidate carries chunk indices as payload
				cfg.Model = vtime.Default()
			})
			var handle *Array
			var before, after sent
			c.Run(func(n *cluster.Node) {
				a := New(n, 3*per*cw)
				ctx := n.NewCtx(0)
				buf := make([]uint64, (whole+1)*cw)
				if n.ID() == 0 {
					handle = a
					for i := range buf {
						buf[i] = oldv(i)
					}
					a.SetRange(ctx, 0, buf) // local: the home's own partition
				}
				c.Barrier(ctx)
				if n.ID() == tcase.who {
					if tcase.write {
						for i := range buf[:whole*cw] {
							buf[i] = midv(i)
						}
						a.SetRange(ctx, 0, buf[:whole*cw])
					} else {
						a.GetRange(ctx, 0, buf[:whole*cw])
					}
				}
				c.Barrier(ctx)
				if n.ID() == 1 {
					before = sentBy(c, 0)
					for i := range buf[:whole*cw] {
						buf[i] = newv(i)
					}
					a.SetRange(ctx, 0, buf[:whole*cw])
					after = sentBy(c, 0)
				}
				c.Barrier(ctx)
				a.GetRange(ctx, 0, buf)
				for i, v := range buf {
					want := newv(i)
					if i >= whole*cw {
						want = oldv(i)
					}
					if v != want {
						t.Errorf("node %d: [%d] = %d, want %d", n.ID(), i, v, want)
						break
					}
				}
				c.Barrier(ctx)
			})
			d := after.since(before)
			if d.grants != whole {
				t.Errorf("home sent %d grants, want %d", d.grants, whole)
			}
			if d.bytes != d.msgs*hdrBytes {
				t.Errorf("home sent %d bytes in %d messages: %d payload bytes, want 0",
					d.bytes, d.msgs, d.bytes-d.msgs*hdrBytes)
			}
			if err := ValidateQuiesced(handle.Instances()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestOverwriteGrantPartialEnds: a range that starts and ends inside a
// chunk still fetches those two chunks (their other words survive); only
// the whole chunks between them go payload-free.
func TestOverwriteGrantPartialEnds(t *testing.T) {
	const (
		cw  = 64
		per = 8
		lo  = cw / 2           // mid chunk 0
		n   = 5 * cw           // ... to mid chunk 5: chunks 1-4 whole
		hi  = lo + n           // one past the last word written
		end = (hi/cw + 1) * cw // end of the last chunk touched
	)
	c := tc(t, 2, func(cfg *cluster.Config) { cfg.PrefetchAhead = -1 })
	var before, after sent
	c.Run(func(nd *cluster.Node) {
		a := New(nd, 2*per*cw)
		ctx := nd.NewCtx(0)
		buf := make([]uint64, end)
		if nd.ID() == 0 {
			for i := range buf {
				buf[i] = uint64(7_000 + i)
			}
			a.SetRange(ctx, 0, buf)
		}
		c.Barrier(ctx)
		if nd.ID() == 1 {
			src := make([]uint64, n)
			for i := range src {
				src[i] = uint64(9_000 + lo + i)
			}
			before = sentBy(c, 0)
			a.SetRange(ctx, lo, src)
			after = sentBy(c, 0)
		}
		c.Barrier(ctx)
		a.GetRange(ctx, 0, buf)
		for i, v := range buf {
			want := uint64(7_000 + i)
			if i >= lo && i < hi {
				want = uint64(9_000 + i)
			}
			if v != want {
				t.Errorf("node %d: [%d] = %d, want %d", nd.ID(), i, v, want)
				break
			}
		}
		c.Barrier(ctx)
	})
	d := after.since(before)
	if d.grants != 6 {
		t.Errorf("home sent %d grants, want 6", d.grants)
	}
	if payload := d.bytes - d.msgs*hdrBytes; payload != 2*cw*8 {
		t.Errorf("home sent %d payload bytes, want the two partial chunks (%d)", payload, 2*cw*8)
	}
}

// TestOverwriteGrantRacingReader: while one thread of a node overwrites
// a remote region round after round (whole chunks through a cache a
// quarter its size, so every round is served by fresh payload-free
// grants; a runtime's lines still outnumber the chunks the two threads'
// pipelines can hold pinned at once), a second thread of the same node reads the region. Every
// word it sees must name its own index and a round at most the one
// being written: the old value or the new one, never whatever the
// pooled line held before. The reader also streams a region of poison
// through the same cache and buffer pool, so a line published before
// its words were installed would show.
func TestOverwriteGrantRacingReader(t *testing.T) {
	const (
		cw     = 64
		per    = 128 // chunks homed per node
		region = 64  // chunks overwritten, from the start of node 0's partition
		rounds = 20
	)
	word := func(round, i int) uint64 { return uint64(round)<<32 | uint64(i) }
	c := tc(t, 2, func(cfg *cluster.Config) {
		cfg.RuntimeThreads = 2
		cfg.CacheChunks = 8 // x 2 runtimes = 16 lines for a 64-chunk region
		cfg.Model = vtime.Default()
	})
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*per*cw)
		root := n.NewCtx(0)
		if n.ID() == 0 {
			init := make([]uint64, per*cw)
			for i := range init {
				init[i] = word(0, i)
				if i >= region*cw {
					init[i] = ^uint64(i) // poison: no valid word has the high bits set
				}
			}
			a.SetRange(root, 0, init)
		}
		c.Barrier(root)
		if n.ID() == 1 {
			var round atomic.Int64 // the round being (or last) written
			var done atomic.Bool
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // writer
				defer wg.Done()
				defer done.Store(true)
				ctx := n.NewCtx(1)
				src := make([]uint64, region*cw)
				for r := 1; r <= rounds; r++ {
					for i := range src {
						src[i] = word(r, i)
					}
					round.Store(int64(r))
					a.SetRange(ctx, 0, src)
				}
			}()
			go func() { // reader
				defer wg.Done()
				ctx := n.NewCtx(2)
				dst := make([]uint64, 3*cw)
				check := func(i int, v uint64, floor int64) bool {
					if r := int64(v >> 32); uint32(v) != uint32(i) || r < floor || r > round.Load() {
						t.Errorf("[%d] = %#x: not a word of rounds %d..%d", i, v, floor, round.Load())
						return false
					}
					return true
				}
				for k := 0; !done.Load(); k++ {
					floor := round.Load() - 1 // rounds before the previous one are fully overwritten
					if floor < 0 {
						floor = 0
					}
					i := (k * 37) % (region * cw)
					if !check(i, a.Get(ctx, int64(i)), floor) {
						return
					}
					at := (k * 29) % ((region - 3) * cw)
					a.GetRange(ctx, int64(at), dst)
					for j, v := range dst {
						if !check(at+j, v, floor) {
							return
						}
					}
					a.GetRange(ctx, int64(region*cw+(k%8)*cw), dst) // poison through the pool
				}
			}()
			wg.Wait()
			got := make([]uint64, region*cw)
			a.GetRange(root, 0, got)
			for i, v := range got {
				if v != word(rounds, i) {
					t.Errorf("final [%d] = %#x, want %#x", i, v, word(rounds, i))
					break
				}
			}
		}
		c.Barrier(root)
	})
}

// TestRTTSamplesAreRoundTrips is the regression test for the collapsed
// window: alternating SetRange/GetRange passes over a remote partition
// 16x the cache mix real round trips with requests that ride a
// speculative fill or find the chunk resident and complete in a few
// virtual ns. Only the former may reach the controller — its RTT floor
// stays a physical round trip and the window stays open. The cluster
// runs the adaptive policy: a cc.Fixed window never moves, so only an
// adaptive one can collapse.
//
// Whether the slow-path prefetcher beats the pipeline to a chunk depends
// on host scheduling, so the last pass forces it: the chunk's
// speculative fill is submitted ahead of the range's own request (same
// thread, same runtime queue), and the thread's clock is already past
// the fill when the request goes out.
func TestRTTSamplesAreRoundTrips(t *testing.T) {
	const (
		cw   = 64
		per  = 128 // chunks homed per node
		call = 16  // chunks per range call
	)
	mdl := vtime.Default()
	c := tc(t, 2, func(cfg *cluster.Config) {
		cfg.RuntimeThreads = 2
		cfg.CacheChunks = per / 16 / 2 // x 2 runtimes = 1/16 of the remote partition
		cfg.Model = mdl
		cfg.AdaptiveCC = true
	})
	c.Run(func(n *cluster.Node) {
		a := New(n, 2*per*cw)
		ctx := n.NewCtx(0)
		c.Barrier(ctx)
		if n.ID() == 1 {
			buf := make([]uint64, call*cw)
			tag := 0 // the last SetRange pass
		stream:
			for pass := 0; pass < 5; pass++ {
				for at := int64(0); at < per*cw; at += call * cw {
					if pass%2 == 0 && pass < 4 {
						tag = pass
						for i := range buf {
							buf[i] = uint64(tag)<<32 | uint64(at+int64(i))
						}
						a.SetRange(ctx, at, buf)
						continue
					}
					if pass == 4 {
						a.speculate(ctx, at/cw)
						ctx.Clock.Advance(20 * mdl.Wire)
					}
					a.GetRange(ctx, at, buf)
					for i, v := range buf {
						if want := uint64(tag)<<32 | uint64(at+int64(i)); v != want {
							t.Errorf("pass %d: [%d] = %#x, want %#x", pass, at+int64(i), v, want)
							break stream
						}
					}
				}
			}
			ctrl := ctx.CC(0)
			if ctrl.Acks() == 0 {
				t.Error("no round trip reached the controller")
			}
			if min := ctrl.MinRttNs(); min < 2*mdl.Wire {
				t.Errorf("RTT floor %d vt ns is below a wire round trip (%d): a sample that crossed no wire was fed", min, 2*mdl.Wire)
			}
			if w := ctrl.Window(c.Config().PipelineDepth); w <= 2 {
				t.Errorf("window %d after streaming (srtt %d, floor %d): collapsed", w, ctrl.SrttNs(), ctrl.MinRttNs())
			}
		}
		c.Barrier(ctx)
	})
}
