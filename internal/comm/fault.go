package comm

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// This file implements deterministic fault injection: a FaultTransport
// wraps any Transport and fires a scripted schedule of failures — crash
// the rank, sever its connections, delay an operation — at exact op or
// epoch counts. Because the schedule is positional rather than random,
// every failure path in the fabric (abort broadcast, progress timeout,
// supervisor restart from checkpoint) is reproducible in CI with a plain
// string like "crash@epoch=3". Surfaced as `cagnet-train -chaos`.

// epochTicker is implemented by transports that want to observe epoch
// boundaries; Comm.EpochDone calls it once per epoch before it recycles.
// Comm.Recycle alone does not.
type epochTicker interface{ EpochTick() }

// FaultEvent is one scheduled failure. Exactly one of AtOp/AtEpoch is
// positive. AtOp counts every Send, Recv and Barrier the transport sees —
// a collective's messages, and the one barrier of each Comm.Recycle, which
// runs at every EpochDone and every input panel — and fires before the
// Nth (AtOp=1 before the first op); AtEpoch counts completed epochs.
type FaultEvent struct {
	// Kind is "crash", "sever", or "delay".
	Kind string
	// AtOp fires the event just before the Nth transport operation.
	AtOp int
	// AtEpoch fires the event at the end of the Nth epoch.
	AtEpoch int
	// Delay is the sleep injected by a "delay" event.
	Delay time.Duration
	fired bool
}

// String renders the event back in plan syntax.
func (e FaultEvent) String() string {
	var b strings.Builder
	b.WriteString(e.Kind)
	if e.AtOp > 0 {
		fmt.Fprintf(&b, "@op=%d", e.AtOp)
	} else {
		fmt.Fprintf(&b, "@epoch=%d", e.AtEpoch)
	}
	if e.Kind == "delay" {
		fmt.Fprintf(&b, ":%v", e.Delay)
	}
	return b.String()
}

// ParseFaultPlan parses a comma-separated chaos schedule:
//
//	crash@epoch=3            kill the rank after epoch 3 completes
//	crash@op=120             kill the rank before its 120th transport op
//	sever@op=40              close every connection before op 40
//	delay@op=10:50ms         sleep 50ms before op 10
//	delay@epoch=2:100ms      sleep 100ms after epoch 2
//
// The grammar is kind@(op|epoch)=N for crash/sever, with a :duration
// suffix required for delay. N must be positive.
func ParseFaultPlan(spec string) ([]FaultEvent, error) {
	var plan []FaultEvent
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, trigger, ok := strings.Cut(part, "@")
		if !ok {
			return nil, fmt.Errorf("comm: fault %q: want kind@trigger", part)
		}
		ev := FaultEvent{Kind: kind}
		switch kind {
		case "crash", "sever":
			if strings.Contains(trigger, ":") {
				return nil, fmt.Errorf("comm: fault %q: only delay takes a duration", part)
			}
		case "delay":
			var durStr string
			trigger, durStr, ok = strings.Cut(trigger, ":")
			if !ok {
				return nil, fmt.Errorf("comm: fault %q: delay needs a :duration suffix", part)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("comm: fault %q: bad duration %q", part, durStr)
			}
			ev.Delay = d
		default:
			return nil, fmt.Errorf("comm: fault %q: unknown kind %q (want crash, sever, or delay)", part, kind)
		}
		unit, nStr, ok := strings.Cut(trigger, "=")
		if !ok {
			return nil, fmt.Errorf("comm: fault %q: want %s@op=N or %s@epoch=N", part, kind, kind)
		}
		n, err := strconv.Atoi(nStr)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("comm: fault %q: trigger count %q must be a positive integer", part, nStr)
		}
		switch unit {
		case "op":
			ev.AtOp = n
		case "epoch":
			ev.AtEpoch = n
		default:
			return nil, fmt.Errorf("comm: fault %q: unknown trigger unit %q (want op or epoch)", part, unit)
		}
		plan = append(plan, ev)
	}
	if len(plan) == 0 {
		return nil, fmt.Errorf("comm: empty fault plan %q", spec)
	}
	return plan, nil
}

// FaultTransport wraps a Transport with a deterministic fault schedule.
// It is transparent until an event fires: ops and epochs are counted, the
// plan is consulted, and the scheduled failure is injected exactly where
// the plan says. Counters are deterministic because the collective
// schedule is — the same rank running the same trainer issues the same
// op sequence every run.
type FaultTransport struct {
	inner Transport
	plan  []FaultEvent
	ops   int
	epoch int
	// Crash is invoked (with a human-readable reason) when a crash event
	// fires. The default panics; a cagnet-train rank overrides it with an
	// abrupt os.Exit so the process dies exactly as kill -9 would — no
	// abort frame, no orderly close, peers must detect the loss.
	Crash func(reason string)
}

// NewFaultTransport wraps inner with the given schedule.
func NewFaultTransport(inner Transport, plan []FaultEvent) *FaultTransport {
	return &FaultTransport{inner: inner, plan: plan}
}

// beforeOp advances the op counter and fires any op-triggered events.
func (t *FaultTransport) beforeOp() {
	t.ops++
	for i := range t.plan {
		ev := &t.plan[i]
		if ev.fired || ev.AtOp != t.ops {
			continue
		}
		ev.fired = true
		t.fire(ev, fmt.Sprintf("op %d", t.ops))
	}
}

// EpochTick advances the epoch counter and fires any epoch-triggered
// events; Comm.EpochDone calls it once per epoch.
func (t *FaultTransport) EpochTick() {
	t.epoch++
	for i := range t.plan {
		ev := &t.plan[i]
		if ev.fired || ev.AtEpoch != t.epoch {
			continue
		}
		ev.fired = true
		t.fire(ev, fmt.Sprintf("epoch %d", t.epoch))
	}
	if et, ok := t.inner.(epochTicker); ok {
		et.EpochTick()
	}
}

// recvArena forwards to the wrapped transport.
func (t *FaultTransport) recvArena() *recvArena { return t.inner.recvArena() }

// fire injects one event.
func (t *FaultTransport) fire(ev *FaultEvent, where string) {
	switch ev.Kind {
	case "delay":
		time.Sleep(ev.Delay)
	case "sever":
		// Closing the inner transport kills every connection: this rank's
		// next op fails locally, and peers observe an unexplained
		// connection loss — the "network died under us" scenario.
		t.inner.Close()
	case "crash":
		reason := fmt.Sprintf("fault injection: crash at %s (rank %d)", where, t.inner.Rank())
		if t.Crash != nil {
			t.Crash(reason)
		}
		panic(&PeerError{Rank: t.inner.Rank(), Peer: t.inner.Rank(), Op: "chaos", Aborted: true, Reason: reason})
	}
}

// Rank returns the wrapped endpoint's rank.
func (t *FaultTransport) Rank() int { return t.inner.Rank() }

// Size returns the wrapped endpoint's world size.
func (t *FaultTransport) Size() int { return t.inner.Size() }

// Send counts the op, fires due events, and forwards.
func (t *FaultTransport) Send(dst int, p Payload) {
	t.beforeOp()
	t.inner.Send(dst, p)
}

// Recv counts the op, fires due events, and forwards.
func (t *FaultTransport) Recv(src int) Payload {
	t.beforeOp()
	return t.inner.Recv(src)
}

// Barrier counts the op, fires due events, and forwards.
func (t *FaultTransport) Barrier() {
	t.beforeOp()
	t.inner.Barrier()
}

// Close forwards to the wrapped transport.
func (t *FaultTransport) Close() error { return t.inner.Close() }

// Abort forwards the failure announcement to the wrapped transport, so
// Cluster.Run treats a FaultTransport exactly like the raw one.
func (t *FaultTransport) Abort(reason string) { t.inner.Abort(reason) }
