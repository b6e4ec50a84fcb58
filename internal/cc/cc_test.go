package cc

import "testing"

// feed advances virtual time by one rtt per ack and feeds n clean
// samples, returning the final virtual time.
func feed(c *Controller, now int64, n int, rtt int64) int64 {
	for i := 0; i < n; i++ {
		now += rtt
		c.OnAck(now, rtt, 0)
	}
	return now
}

func TestSlowStartRamp(t *testing.T) {
	c := New(Adaptive)
	if w := c.Window(64); w != initWindow>>fpShift {
		t.Fatalf("initial window = %d, want %d", w, initWindow>>fpShift)
	}
	// Slow start grows exactly one chunk per ack until the ceiling.
	now := int64(0)
	const rtt = 2000
	for i := 1; i <= 20; i++ {
		now += rtt
		if ev := c.OnAck(now, rtt, 0); ev != EvGrow {
			t.Fatalf("ack %d: event %v, want EvGrow", i, ev)
		}
		want := initWindow>>fpShift + i
		if w := c.Window(64); w != want {
			t.Fatalf("after %d acks: window = %d, want %d", i, w, want)
		}
		if !c.InSlowStart() {
			t.Fatalf("after %d acks: left slow start without a signal", i)
		}
	}
	// The static knob stays a ceiling.
	if w := c.Window(8); w != 8 {
		t.Fatalf("Window(8) = %d, want clamp to 8", w)
	}
}

// TestNonPositiveSampleIgnored: a completion that took no virtual time
// crossed no wire. Taken as a 1 ns sample it used to become the RTT
// floor for the controller's lifetime, Vegas then read every honest
// round trip as a full window of standing queue, and the window stepped
// down to 2 and stayed there.
func TestNonPositiveSampleIgnored(t *testing.T) {
	c := New(Adaptive)
	const rtt = 4000
	now := feed(c, 0, 4, rtt)
	w0, srtt0, acks0 := c.Window(64), c.SrttNs(), c.Acks()
	for _, bad := range []int64{0, -350} {
		if ev := c.OnAck(now, bad, 0); ev != EvGrow {
			t.Fatalf("OnAck(rtt=%d) = %v, want a no-op EvGrow", bad, ev)
		}
	}
	if c.MinRttNs() != rtt || c.SrttNs() != srtt0 || c.Window(64) != w0 || c.Acks() != acks0 {
		t.Fatalf("non-positive samples moved the controller: min=%d srtt=%d cwnd=%d acks=%d, want %d %d %d %d",
			c.MinRttNs(), c.SrttNs(), c.Window(64), c.Acks(), rtt, srtt0, w0, acks0)
	}
	feed(c, now, 40, rtt)
	if w := c.Window(64); w <= w0 {
		t.Fatalf("window %d after 40 clean round trips, want growth past %d", w, w0)
	}
	if c.Backoffs() != 0 {
		t.Fatalf("%d delay backoffs on a constant-RTT path", c.Backoffs())
	}
}

func TestBackoffThenCubicRegrowth(t *testing.T) {
	c := New(Adaptive)
	now := feed(c, 0, 60, 2000) // well past 32 chunks
	w0 := c.Window(256)
	if w0 < 32 {
		t.Fatalf("ramp failed: window %d", w0)
	}
	// A retransmitted completion is a loss signal: multiplicative backoff.
	now += 2000
	if ev := c.OnAck(now, 2000, 500); ev != EvBackoff {
		t.Fatalf("retransmit sample: event %v, want EvBackoff", ev)
	}
	w1 := c.Window(256)
	if want := w0 * 7 / 10; w1 < want-1 || w1 > want+1 {
		t.Fatalf("backoff window %d, want ~0.7*%d = %d", w1, w0, want)
	}
	if c.Backoffs() != 1 {
		t.Fatalf("backoffs = %d, want 1", c.Backoffs())
	}
	if c.InSlowStart() {
		t.Fatal("still in slow start after backoff")
	}
	// Clean acks re-grow the window along the cubic curve back to (and
	// past) the pre-backoff Wmax.
	prev := w1
	regrew := -1
	for i := 0; i < 400; i++ {
		now += 2000
		if ev := c.OnAck(now, 2000, 0); ev != EvGrow {
			t.Fatalf("clean ack %d: event %v, want EvGrow", i, ev)
		}
		w := c.Window(256)
		if w < prev {
			t.Fatalf("cubic region shrank without a signal: %d -> %d", prev, w)
		}
		prev = w
		if regrew < 0 && w >= w0 {
			regrew = i
		}
	}
	if regrew < 0 {
		t.Fatalf("window never re-reached Wmax %d (stuck at %d)", w0, prev)
	}
	// Cubic growth is concave below Wmax: slower than slow start's
	// 1/ack, so re-reaching Wmax must take more acks than the ~0.3*w0
	// slow start would.
	if regrew < (w0-w1)/2 {
		t.Fatalf("re-grew in %d acks — faster than additive, not cubic", regrew)
	}
}

func TestBackoffHysteresis(t *testing.T) {
	c := New(Adaptive)
	now := feed(c, 0, 40, 2000)
	now += 2000
	c.OnAck(now, 2000, 300)
	// The rest of the old in-flight window completes within one srtt,
	// all still carrying the loss signal: only the first may react.
	for i := 0; i < 8; i++ {
		c.OnAck(now+int64(i), 2000, 300)
	}
	if got := c.Backoffs(); got != 1 {
		t.Fatalf("backoffs = %d, want 1 (one reaction per srtt)", got)
	}
	// A signal a full srtt later is a fresh congestion event.
	c.OnAck(now+4000, 2000, 300)
	if got := c.Backoffs(); got != 2 {
		t.Fatalf("backoffs = %d, want 2", got)
	}
}

func TestTimeoutGradeReset(t *testing.T) {
	c := New(Adaptive)
	now := feed(c, 0, 40, 2000)
	if c.Window(256) < 20 {
		t.Fatalf("ramp failed: %d", c.Window(256))
	}
	// A completion whose go-back-N recovery delay dominated the round
	// trip is timeout grade: collapse to one chunk and slow-start again.
	now += 30000
	if ev := c.OnAck(now, 30000, 20000); ev != EvReset {
		t.Fatalf("timeout-grade sample: event %v, want EvReset", ev)
	}
	if w := c.Window(256); w != 1 {
		t.Fatalf("post-reset window = %d, want 1", w)
	}
	if c.Resets() != 1 {
		t.Fatalf("resets = %d, want 1", c.Resets())
	}
	if !c.InSlowStart() {
		t.Fatal("reset must re-enter slow start")
	}
	// Recovery: clean base-RTT acks regrow the window as the polluted
	// srtt estimate converges back down (Vegas holds growth while the
	// timeout sample still inflates the standing-queue estimate).
	w1 := c.Window(256)
	feed(c, now+100000, 40, 2000) // skip far ahead: hysteresis satisfied
	if w := c.Window(256); w <= w1 || w < 10 {
		t.Fatalf("post-reset recovery: window %d (from %d), want substantial regrowth", w, w1)
	}
}

// TestRttvarConvergence drives the estimator with the fault plan's
// latency-spike shape: a constant base RTT with rare 10x spikes. The
// smoothed estimate must stay anchored near the base while the variance
// tracks the spike magnitude — and with spikes removed both converge.
func TestRttvarConvergence(t *testing.T) {
	const base, spike = 2000, 20000
	c := New(Adaptive)
	now := int64(0)
	for i := 1; i <= 500; i++ {
		now += base
		rtt := int64(base)
		if i%32 == 0 {
			rtt = spike
		}
		c.OnAck(now, rtt, 0)
	}
	if s := c.SrttNs(); s < base || s > 2*base {
		t.Fatalf("srtt %d strayed from base %d under rare spikes", s, base)
	}
	if v := c.RttvarNs(); v < (spike-base)/64 {
		t.Fatalf("rttvar %d too small to reflect %dns spikes", v, spike-base)
	}
	// Spike-free tail: both estimates converge to the constant signal.
	for i := 0; i < 512; i++ {
		now += base
		c.OnAck(now, base, 0)
	}
	if s := c.SrttNs(); s < base-base/32 || s > base+base/32 {
		t.Fatalf("srtt %d did not converge to %d", s, base)
	}
	if v := c.RttvarNs(); v > base/16 {
		t.Fatalf("rttvar %d did not decay on a constant signal", v)
	}
	if got := c.MinRttNs(); got != base {
		t.Fatalf("minRTT = %d, want %d", got, base)
	}
}

func TestDelaySignalBacksOff(t *testing.T) {
	c := New(Adaptive)
	now := feed(c, 0, 30, 2000)
	// Queueing delay (no retransmission) inflating the Vegas standing-
	// queue estimate past its budget is a congestion signal on its own —
	// the fault-free contention lever.
	now += 7000
	if ev := c.OnAck(now, 7000, 0); ev != EvBackoff {
		t.Fatalf("delay sample: event %v, want EvBackoff", ev)
	}
	// Persistent queueing steps the window down additively (one chunk
	// per srtt), settling at a small window — never collapsing to a
	// reset the way loss does, and never dropping below one chunk.
	w := c.Window(256)
	for i := 0; i < 300; i++ {
		now += 7000
		c.OnAck(now, 7000, 0)
		nw := c.Window(256)
		if nw < w-1 {
			t.Fatalf("delay step shrank window %d -> %d: more than additive", w, nw)
		}
		w = nw
	}
	// Equilibrium: the largest window whose Vegas standing-queue estimate
	// w*(1 - minRTT/srtt) stays inside the [alpha, beta] budget.
	if w < 1 || w > int(vegasBeta>>fpShift)+2 {
		t.Fatalf("persistent-delay window = %d, want a small positive equilibrium", w)
	}
	if c.Resets() != 0 {
		t.Fatalf("pure delay caused %d resets, want 0", c.Resets())
	}
}

func TestIcbrt(t *testing.T) {
	for _, x := range []int64{0, 1, 2, 3, 7, 8, 27, 1000, 1 << 20, 5859} {
		got := icbrt(x * x * x)
		if got != x {
			t.Fatalf("icbrt(%d^3) = %d", x, got)
		}
	}
	if got := icbrt(26); got != 2 {
		t.Fatalf("icbrt(26) = %d, want 2 (floor)", got)
	}
}

func TestBurstAIMD(t *testing.T) {
	b := NewBurst(16, Adaptive)
	if b.Limit() != 16 {
		t.Fatalf("initial limit %d", b.Limit())
	}
	b.OnBurst(true)
	if b.Limit() != 11 {
		t.Fatalf("post-retransmit limit %d, want 11", b.Limit())
	}
	for i := 0; i < 10; i++ {
		b.OnBurst(true)
	}
	if b.Limit() != 1 {
		t.Fatalf("floor limit %d, want 1", b.Limit())
	}
	for i := 0; i < 100; i++ {
		b.OnBurst(false)
	}
	if b.Limit() != 16 {
		t.Fatalf("recovered limit %d, want ceiling 16", b.Limit())
	}
}

// TestFixedPolicyHoldsTheCeiling: a Fixed controller's window is whatever
// ceiling the caller names, through clean, delayed, lossy and
// timeout-grade round trips alike; it still measures them. A Fixed Tx
// budget stays at its ceiling after a retransmitted burst.
func TestFixedPolicyHoldsTheCeiling(t *testing.T) {
	c := New(Fixed)
	now := int64(0)
	for i, s := range []struct{ rtt, retrans int64 }{
		{5000, 0}, {5000, 0}, {90000, 0}, {5000, 2000}, {400000, 300000}, {5000, 0},
	} {
		now += s.rtt
		if ev := c.OnAck(now, s.rtt, s.retrans); ev != EvGrow {
			t.Fatalf("sample %d: event %d, want no reaction", i, ev)
		}
		for _, ceiling := range []int{1, 8, 1000} {
			if w := c.Window(ceiling); w != ceiling {
				t.Fatalf("sample %d: window %d under ceiling %d", i, w, ceiling)
			}
		}
	}
	if c.Backoffs() != 0 || c.Resets() != 0 {
		t.Fatalf("fixed controller backed off: %d backoffs, %d resets", c.Backoffs(), c.Resets())
	}
	if c.SrttNs() == 0 || c.MinRttNs() != 5000 {
		t.Fatalf("fixed controller stopped measuring: srtt %d, min %d", c.SrttNs(), c.MinRttNs())
	}

	b := NewBurst(16, Fixed)
	b.OnBurst(true)
	b.OnBurst(false)
	if b.Limit() != 16 {
		t.Fatalf("fixed burst limit %d, want the ceiling 16", b.Limit())
	}
}
