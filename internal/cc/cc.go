// Package cc implements the congestion control behind adaptive bulk
// streaming: a per-(stream, destination) controller that turns the
// fixed PipelineDepth/TxBurst knobs into ceilings and picks the actual
// window at runtime from observed virtual-time round trips.
//
// The controller is TCP-CUBIC shaped with delay-based steering. An RFC
// 6298 estimator tracks the smoothed round-trip time (srtt) and its
// variance (rttvar) over per-chunk token completions, stamped in
// virtual time by the fabric. The window slow-starts until the first
// congestion signal, then grows along the cubic W(t) = Wmax + C*(t-K)^3
// curve. Two signal families shrink it:
//
//   - retransmission (loss): the completion's grant crossed a lossy
//     wire and the fabric's go-back-N machinery had to resend it
//     (Resp.RetransNs > 0) — the signal a real RC NIC surfaces as retry
//     counters. A plain retransmit backs the window off
//     multiplicatively (beta = 0.7); one whose recovery delay dominated
//     the whole round trip is timeout-grade and collapses the window to
//     one chunk, re-entering slow start.
//   - delay (contention): on the simulator's fault-free fabric nothing
//     is ever dropped — competing streams only queue virtual time — so
//     the controller steers on the Vegas estimate of its own standing
//     queue, queued = cwnd * (1 - minRTT/srtt) chunks. Above
//     vegasBeta the window steps down one chunk per srtt; between
//     vegasAlpha and vegasBeta it holds; growth (slow start or cubic)
//     only happens below vegasAlpha. Additive stepping keeps N
//     competing streams at a small bounded queue each instead of
//     oscillating between full depth and the floor the way a
//     multiplicative delay reaction does.
//
// All arithmetic is integer fixed point (<<fpShift), matching the
// repository's estimator idiom, and the hot read path (Window) is a
// single atomic load so runtime goroutines — the prefetcher capping
// speculative issues by spare window — can consult a controller owned
// by an application thread without locks. OnAck must only be called by
// the owning stream's thread.
package cc

import (
	"math"
	"sync/atomic"
)

// Fixed-point scale for window arithmetic.
const (
	fpShift = 10
	fpOne   = 1 << fpShift
)

const (
	// minWindow/initWindow/maxWindow bound the congestion window in
	// chunks (fixed point). initWindow keeps single-stream slow start
	// short enough that adaptive throughput stays within a few percent
	// of a hand-tuned fixed depth; maxWindow only bounds the fixed-point
	// math — callers clamp to their own Pipeline ceiling via Window.
	minWindow  = 1 * fpOne
	initWindow = 4 * fpOne
	maxWindow  = 256 * fpOne

	// CUBIC constants: multiplicative backoff beta = 0.7, curve scale
	// C = 0.4 (cubicC is 0.4 in fixed point).
	betaNum = 7
	betaDen = 10
	cubicC  = (4 * fpOne) / 10

	// Vegas steering budget: the window aims to keep between
	// vegasAlpha and vegasBeta of its own chunks queued on the wire
	// (fixed point). Small values trade a little single-stream
	// throughput headroom for short queues — the whole point of the
	// contention experiment.
	vegasAlpha = 2 * fpOne
	vegasBeta  = 3 * fpOne

	// After a loss signal the next few round trips carry the go-back-N
	// recovery burst: their inflated delay is the recovery draining, not
	// new congestion, and the delay-based step-down is suspended for
	// this many srtt so the window is not double-penalized.
	lossQuietRtts = 4
)

// Event classifies what an RTT sample did to the window.
type Event uint8

const (
	// EvGrow: no congestion signal; the window grew (or held its clamp).
	EvGrow Event = iota
	// EvBackoff: a retransmit or delay signal shrank the window by beta.
	EvBackoff
	// EvReset: a timeout-grade sample collapsed the window to minimum
	// and re-entered slow start.
	EvReset
)

// Policy says what a controller does with the signals it is fed. It is
// chosen once, where the controllers are built; the code that consults
// them never asks which one it got.
type Policy uint8

const (
	// Adaptive is the controller described above: slow start, cubic
	// growth, back-off on loss and on standing queue.
	Adaptive Policy = iota
	// Fixed pins the window (and the Tx batch) at the caller's ceiling:
	// round trips are still measured, never acted on. It is the
	// static-knob reference the contention experiment compares against.
	Fixed
)

// Controller is one stream's congestion state toward one destination.
// The owning application thread calls OnAck; any goroutine may call the
// atomic readers (Window, SrttNs).
type Controller struct {
	cwnd atomic.Int64 // congestion window, chunks << fpShift
	srtt atomic.Int64 // smoothed RTT, virtual ns

	fixed bool // Policy Fixed: cwnd stays above every ceiling

	// Estimator state (owner-thread only).
	rttvar int64 // RTT variance, virtual ns (RFC 6298)
	minRTT int64 // observed RTT floor; 0 until the first sample

	// CUBIC state (owner-thread only).
	ssthresh    int64 // slow start ends here (fixed point)
	wmax        int64 // window at the last backoff (fixed point)
	k10         int64 // cubic K: srtt units << fpShift
	epoch       int64 // virtual time the current cubic epoch began
	lastBackoff int64 // virtual time of the last backoff (hysteresis)
	lastGrow    int64 // virtual time of the last applied growth (pacing)
	lastLoss    int64 // virtual time of the last retransmit-carrying sample

	acks     int64
	backoffs atomic.Int64
	resets   atomic.Int64
}

// New returns a controller under policy p: an adaptive one in slow start
// at the initial window, a fixed one with a window no ceiling clamps.
func New(p Policy) *Controller {
	c := &Controller{fixed: p == Fixed, ssthresh: maxWindow, lastBackoff: -1 << 62, lastLoss: -1 << 62}
	c.cwnd.Store(initWindow)
	if c.fixed {
		c.cwnd.Store(math.MaxInt64)
	}
	return c
}

// Window returns the current window in whole chunks, clamped to
// [1, cap]. cap is the stream's static knob (PipelineDepth): the knob
// survives as a ceiling, never a setting.
func (c *Controller) Window(cap int) int {
	w := int(c.cwnd.Load() >> fpShift)
	if w < 1 {
		w = 1
	}
	if cap >= 1 && w > cap {
		w = cap
	}
	return w
}

// OnAck feeds one completed round trip: now is the completion's virtual
// time, rtt the request-to-grant virtual duration, and retransNs the
// share of it the fabric's go-back-N recovery added (0 on a clean
// wire). A non-positive rtt is not a round trip — nothing crosses a
// wire in no time — and is ignored entirely: one such sample taken as
// the RTT floor would make every later round trip look like standing
// queue and pin the window at the Vegas floor. Must be called only by
// the stream's owning thread.
func (c *Controller) OnAck(now, rtt, retransNs int64) Event {
	if rtt <= 0 {
		return EvGrow
	}
	c.acks++
	// Karn's algorithm: samples that carried go-back-N recovery are
	// excluded from the estimator — they measure the retransmission
	// machinery, not the path, and would poison srtt (gating
	// post-recovery growth on a phantom standing queue).
	srtt := c.srtt.Load()
	if retransNs == 0 {
		if c.minRTT == 0 || rtt < c.minRTT {
			c.minRTT = rtt
		}
		if srtt == 0 {
			srtt = rtt
			c.rttvar = rtt / 2
		} else {
			dev := rtt - srtt
			if dev < 0 {
				dev = -dev
			}
			c.rttvar += (dev - c.rttvar) / 4
			srtt += (rtt - srtt) / 8
		}
		c.srtt.Store(srtt)
	} else if srtt == 0 {
		srtt = rtt
	}
	if c.fixed {
		return EvGrow
	}

	cwnd := c.cwnd.Load()
	// queued is the Vegas estimate of this stream's own standing queue:
	// the share of the window that is buffering rather than propagating.
	var queued int64
	if c.minRTT > 0 && srtt > c.minRTT {
		queued = cwnd - cwnd*c.minRTT/srtt
	}
	// Congestion signals, rate-limited to one reaction per srtt: every
	// chunk of the in-flight window that completes after a backoff still
	// carries the pre-backoff queueing delay, and reacting to each would
	// collapse the window to the floor on a single event.
	if retransNs > 0 {
		c.lastLoss = now
	}
	if now-c.lastBackoff >= srtt {
		if retransNs > 0 {
			c.wmax = cwnd
			if retransNs >= rtt/2 && rtt >= 4*srtt {
				// Go-back-N recovery dominated a round trip that was
				// itself anomalous against the smoothed estimate:
				// timeout-grade, collapse and probe from scratch. (A
				// retrans-heavy but otherwise ordinary round trip is
				// random loss, not collapse-worthy congestion — that
				// takes the multiplicative branch below.)
				c.ssthresh = maxi(cwnd*betaNum/betaDen, 2*fpOne)
				c.noteBackoff(now, minWindow)
				c.resets.Add(1)
				return EvReset
			}
			next := maxi(cwnd*betaNum/betaDen, minWindow)
			c.ssthresh = next
			c.noteBackoff(now, next)
			return EvBackoff
		}
		if queued > vegasBeta && now-c.lastLoss >= lossQuietRtts*srtt {
			// Standing queue above budget: step down one chunk. The
			// additive step also ends slow start — the queue is the
			// proof the pipe is already full. Suppressed inside the
			// post-loss quiet window: delay measured while go-back-N
			// recovery drains is the recovery, not fresh congestion.
			c.wmax = cwnd
			next := maxi(cwnd-fpOne, minWindow)
			c.ssthresh = next
			c.noteBackoff(now, next)
			return EvBackoff
		}
	}

	if queued >= vegasAlpha {
		if cwnd < c.ssthresh {
			// Vegas slow-start exit: the first standing-queue signal ends
			// exponential growth right here, before the overshoot that a
			// loss-triggered exit would need.
			c.ssthresh = cwnd
		}
		return EvGrow // inside the budget: hold
	}
	// Growth is paced to one chunk per srtt: the Vegas estimate lags the
	// wire by the EWMA horizon, and un-paced growth jumps past the
	// equilibrium faster than the one-chunk-per-srtt step-down can
	// correct — the window (and everyone's queue) would oscillate
	// instead of settling.
	if now-c.lastGrow < srtt {
		return EvGrow
	}
	var inc int64
	if cwnd < c.ssthresh {
		inc = fpOne // slow start
	} else {
		inc = c.cubicIncrement(now, cwnd, srtt)
		if inc > fpOne {
			inc = fpOne
		}
	}
	cwnd += inc
	if cwnd > maxWindow {
		cwnd = maxWindow
	}
	c.lastGrow = now
	c.cwnd.Store(cwnd)
	return EvGrow
}

// noteBackoff installs the post-backoff window and starts a new cubic
// epoch. K solves Wmax - C*K^3 = newWnd, i.e. the curve re-reaches Wmax
// K srtt-units into the epoch; with newWnd = beta*Wmax that is
// K = cbrt(Wmax*(1-beta)/C) = cbrt(3/4 * Wmax).
func (c *Controller) noteBackoff(now, newWnd int64) {
	c.cwnd.Store(newWnd)
	c.epoch = now
	c.lastBackoff = now
	c.k10 = icbrt(((c.wmax - newWnd) << (3 * fpShift)) / cubicC)
	c.backoffs.Add(1)
}

// cubicIncrement returns this ack's window growth in the concave/convex
// cubic region: the per-ack share (target-cwnd)/cwnd of the distance to
// the curve point W(t) = Wmax + C*(t-K)^3, floored at the
// Reno-friendly 1/cwnd so the window never stalls below the curve.
func (c *Controller) cubicIncrement(now, cwnd, srtt int64) int64 {
	var t10 int64
	if srtt > 0 {
		t10 = ((now - c.epoch) << fpShift) / srtt
	}
	d := t10 - c.k10
	// |d| is clamped so d^3 stays in range; past the clamp the target
	// exceeds maxWindow anyway.
	if d > 1<<14 {
		d = 1 << 14
	} else if d < -(1 << 14) {
		d = -(1 << 14)
	}
	cube := (((d * d) >> fpShift) * d) >> fpShift // d^3, still << fpShift
	target := c.wmax + (cubicC*cube)>>fpShift
	if target > maxWindow {
		target = maxWindow
	}
	inc := int64(0)
	if target > cwnd {
		inc = ((target - cwnd) << fpShift) / cwnd
	}
	if reno := (fpOne << fpShift) / cwnd; inc < reno {
		inc = reno
	}
	return inc
}

// SrttNs returns the smoothed RTT estimate in virtual nanoseconds
// (0 before the first sample). Safe from any goroutine.
func (c *Controller) SrttNs() int64 { return c.srtt.Load() }

// RttvarNs returns the RTT variance estimate (owner thread only).
func (c *Controller) RttvarNs() int64 { return c.rttvar }

// MinRttNs returns the observed RTT floor (owner thread only).
func (c *Controller) MinRttNs() int64 { return c.minRTT }

// Acks returns how many samples were fed (owner thread only).
func (c *Controller) Acks() int64 { return c.acks }

// Backoffs returns how many multiplicative backoffs fired (including
// timeout-grade resets). Safe from any goroutine.
func (c *Controller) Backoffs() int64 { return c.backoffs.Load() }

// Resets returns how many timeout-grade collapses fired. Safe from any
// goroutine.
func (c *Controller) Resets() int64 { return c.resets.Load() }

// InSlowStart reports whether the window is still below ssthresh
// (owner thread only).
func (c *Controller) InSlowStart() bool { return c.cwnd.Load() < c.ssthresh }

func maxi(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// icbrt returns the integer cube root of x (the hardware shift-and-
// subtract method), used to place the cubic inflection point K.
func icbrt(x int64) int64 {
	if x <= 0 {
		return 0
	}
	u := uint64(x)
	var y uint64
	for s := 63; s >= 0; s -= 3 {
		y <<= 1
		b := 3*y*(y+1) + 1
		if u>>uint(s) >= b {
			u -= b << uint(s)
			y++
		}
	}
	return int64(y)
}

// Burst is the transmit-side half of the same idea: an AIMD budget for
// the Tx thread's doorbell batch. The configured TxBurst is the
// ceiling; a burst whose posts needed go-back-N retransmission shrinks
// the next batch multiplicatively (same beta as the window controller),
// and every clean burst grows it back by one. Owned by the single Tx
// goroutine — no atomics needed.
type Burst struct {
	budget int
	max    int
	fixed  bool // Policy Fixed: the budget stays at max
}

// NewBurst returns a budget starting at (and capped by) max; under the
// Fixed policy it never leaves it.
func NewBurst(max int, p Policy) *Burst {
	if max < 1 {
		max = 1
	}
	return &Burst{budget: max, max: max, fixed: p == Fixed}
}

// Limit returns the current batch budget (>= 1).
func (b *Burst) Limit() int { return b.budget }

// OnBurst feeds the outcome of one posted batch: whether any of its
// messages needed retransmission.
func (b *Burst) OnBurst(retransmitted bool) {
	if b.fixed {
		return
	}
	if retransmitted {
		b.budget = b.budget * betaNum / betaDen
		if b.budget < 1 {
			b.budget = 1
		}
		return
	}
	if b.budget < b.max {
		b.budget++
	}
}
