package comm

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestParseFaultPlan(t *testing.T) {
	plan, err := ParseFaultPlan("crash@epoch=3")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 1 || plan[0].Kind != "crash" || plan[0].AtEpoch != 3 || plan[0].AtOp != 0 {
		t.Fatalf("parsed %+v", plan)
	}

	plan, err = ParseFaultPlan("delay@op=10:50ms, sever@op=40,crash@epoch=2")
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 3 {
		t.Fatalf("parsed %d events, want 3", len(plan))
	}
	if plan[0].Kind != "delay" || plan[0].AtOp != 10 || plan[0].Delay != 50*time.Millisecond {
		t.Fatalf("event 0: %+v", plan[0])
	}
	if plan[1].Kind != "sever" || plan[1].AtOp != 40 {
		t.Fatalf("event 1: %+v", plan[1])
	}
	// String round-trips through the parser.
	for _, ev := range plan {
		again, err := ParseFaultPlan(ev.String())
		if err != nil {
			t.Fatalf("re-parsing %q: %v", ev.String(), err)
		}
		if again[0].String() != ev.String() {
			t.Fatalf("round trip %q -> %q", ev.String(), again[0].String())
		}
	}
}

func TestParseFaultPlanRejects(t *testing.T) {
	for _, spec := range []string{
		"",                 // empty plan
		"   ,  ",           // only separators
		"crash",            // no trigger
		"crash@epoch",      // no count
		"crash@epoch=0",    // non-positive count
		"crash@epoch=-2",   // negative count
		"crash@epoch=x",    // non-numeric count
		"crash@step=3",     // unknown trigger unit
		"explode@op=1",     // unknown kind
		"delay@op=4",       // delay without duration
		"delay@op=4:xx",    // bad duration
		"delay@op=4:-5ms",  // non-positive duration
		"crash@epoch=3:5s", // duration on a crash
	} {
		if _, err := ParseFaultPlan(spec); err == nil {
			t.Errorf("ParseFaultPlan(%q) accepted", spec)
		}
	}
}

// countTransport is a minimal Transport that records calls, for driving
// FaultTransport without a fabric.
type countTransport struct {
	sends, recvs, barriers int
	closed                 atomic.Bool
	aborts                 []string
}

func (c *countTransport) Rank() int           { return 1 }
func (c *countTransport) Size() int           { return 4 }
func (c *countTransport) Send(int, Payload)   { c.sends++ }
func (c *countTransport) Recv(int) Payload    { c.recvs++; return Payload{} }
func (c *countTransport) Barrier()            { c.barriers++ }
func (c *countTransport) Close() error        { c.closed.Store(true); return nil }
func (c *countTransport) Abort(reason string) { c.aborts = append(c.aborts, reason) }

func TestFaultTransportCrashAtOp(t *testing.T) {
	inner := &countTransport{}
	plan, _ := ParseFaultPlan("crash@op=3")
	ft := NewFaultTransport(inner, plan)
	ft.Send(0, Payload{})
	ft.Recv(0)
	// The op counter increments before the operation runs: the third op
	// must die before reaching the inner transport.
	func() {
		defer func() {
			pe, ok := AsPeerError(recover())
			if !ok {
				t.Fatal("crash event did not panic a *PeerError")
			}
			if pe.Rank != 1 || !strings.Contains(pe.Reason, "op 3") {
				t.Fatalf("crash PeerError: %+v", pe)
			}
		}()
		ft.Barrier()
	}()
	if inner.sends != 1 || inner.recvs != 1 || inner.barriers != 0 {
		t.Fatalf("inner saw %d/%d/%d ops; the crashed op must not reach it",
			inner.sends, inner.recvs, inner.barriers)
	}
}

func TestFaultTransportCrashHook(t *testing.T) {
	inner := &countTransport{}
	plan, _ := ParseFaultPlan("crash@epoch=2")
	ft := NewFaultTransport(inner, plan)
	var got string
	// The hook observes the crash; if it returns (a real launcher calls
	// os.Exit and never does), the default panic still fires — a crash
	// event must never let training continue.
	ft.Crash = func(reason string) { got = reason }
	ft.EpochTick()
	if got != "" {
		t.Fatalf("crash fired at epoch 1: %q", got)
	}
	func() {
		defer func() {
			if _, ok := AsPeerError(recover()); !ok {
				t.Fatal("crash with a returning hook did not panic a *PeerError")
			}
		}()
		ft.EpochTick()
	}()
	if !strings.Contains(got, "epoch 2") || !strings.Contains(got, "rank 1") {
		t.Fatalf("crash reason %q", got)
	}
	// A fired event never re-fires.
	ft.EpochTick()
	ft.EpochTick()
	if !strings.Contains(got, "epoch 2") {
		t.Fatalf("crash re-fired: %q", got)
	}
}

func TestFaultTransportSeverClosesInner(t *testing.T) {
	inner := &countTransport{}
	plan, _ := ParseFaultPlan("sever@op=2")
	ft := NewFaultTransport(inner, plan)
	ft.Send(0, Payload{})
	if inner.closed.Load() {
		t.Fatal("severed before op 2")
	}
	ft.Send(0, Payload{})
	if !inner.closed.Load() {
		t.Fatal("sever event did not close the inner transport")
	}
	// The op itself still proceeds (and would fail on a real fabric).
	if inner.sends != 2 {
		t.Fatalf("inner saw %d sends", inner.sends)
	}
}

func TestFaultTransportDelayAndForwarding(t *testing.T) {
	inner := &countTransport{}
	plan, _ := ParseFaultPlan("delay@op=1:30ms")
	ft := NewFaultTransport(inner, plan)
	start := time.Now()
	ft.Recv(0)
	if d := time.Since(start); d < 30*time.Millisecond {
		t.Fatalf("delay event slept only %v", d)
	}
	if ft.Rank() != 1 || ft.Size() != 4 {
		t.Fatal("identity forwarding broken")
	}
	ft.Abort("boom")
	if len(inner.aborts) != 1 || inner.aborts[0] != "boom" {
		t.Fatalf("abort forwarding: %v", inner.aborts)
	}
	if err := ft.Close(); err != nil || !inner.closed.Load() {
		t.Fatal("close forwarding broken")
	}
}

// TestRecycleLeavesFaultEpoch: Recycle returns the Comm pool's buffers and
// the transport arena's (a second checkout gets the same backing array) and
// passes no epoch boundary, so an epoch-triggered fault still counts only
// EpochDone's.
func TestRecycleLeavesFaultEpoch(t *testing.T) {
	plan, _ := ParseFaultPlan("crash@epoch=1")
	ft := NewFaultTransport(newChanFabric(1).endpoint(0), plan)
	c := NewTransportComm(ft, testCost)
	round := func() (pooled, received *float64) {
		ft.Send(0, Payload{Floats: make([]float64, 100)}) // cloned into the arena
		return &c.pool.getFloats(100)[0], &ft.Recv(0).Floats[0]
	}
	pooled, received := round()
	for range 3 {
		c.Recycle()
		p, r := round()
		if p != pooled || r != received {
			t.Fatal("Recycle did not return the pool's and the arena's buffers")
		}
	}
	if ft.epoch != 0 {
		t.Fatalf("three Recycles advanced the fault epoch to %d", ft.epoch)
	}
	defer func() {
		if _, ok := AsPeerError(recover()); !ok || ft.epoch != 1 {
			t.Fatalf("EpochDone after the Recycles did not fire crash@epoch=1 (epoch %d)", ft.epoch)
		}
	}()
	c.EpochDone()
}
