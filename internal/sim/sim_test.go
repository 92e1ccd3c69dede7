package sim

import (
	"sort"
	"testing"
	"testing/quick"
)

type recorder struct {
	events []Event
}

func (r *recorder) HandleEvent(ev Event) { r.events = append(r.events, ev) }

func TestOrderingByTime(t *testing.T) {
	e := NewEngine()
	e.Schedule(30, KindTimer, 0, 0)
	e.Schedule(10, KindCPUStep, 1, 0)
	e.Schedule(20, KindWake, 2, 0)
	var r recorder
	for e.Step(&r) {
	}
	if len(r.events) != 3 {
		t.Fatalf("delivered %d events, want 3", len(r.events))
	}
	if r.events[0].Kind != KindCPUStep || r.events[1].Kind != KindWake || r.events[2].Kind != KindTimer {
		t.Fatalf("wrong order: %v", r.events)
	}
}

func TestTieBreakBySequence(t *testing.T) {
	e := NewEngine()
	for i := int32(0); i < 100; i++ {
		e.Schedule(5, KindCPUStep, i, 0)
	}
	var r recorder
	for e.Step(&r) {
	}
	for i, ev := range r.events {
		if ev.Node != int32(i) {
			t.Fatalf("tie-break violated at %d: got node %d", i, ev.Node)
		}
	}
}

func TestClockMonotonic(t *testing.T) {
	e := NewEngine()
	// Property: clock never decreases, even with past-time scheduling.
	if err := quick.Check(func(delays []int16) bool {
		e2 := NewEngine()
		for i, d := range delays {
			e2.ScheduleAt(int64(d), KindTimer, int32(i), 0)
		}
		last := int64(-1)
		var r recorder
		for e2.Step(&r) {
			if e2.Now() < last {
				return false
			}
			last = e2.Now()
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
	_ = e
}

func TestScheduleAtPastClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, KindTimer, 0, 0)
	var r recorder
	e.Step(&r)
	if e.Now() != 100 {
		t.Fatalf("now = %d, want 100", e.Now())
	}
	e.ScheduleAt(50, KindWake, 0, 7) // in the past
	e.Step(&r)
	if e.Now() != 100 {
		t.Fatalf("past event moved clock backwards to %d", e.Now())
	}
	if r.events[1].Arg != 7 {
		t.Fatalf("wrong event delivered: %v", r.events[1])
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	e := NewEngine()
	e.Schedule(-5, KindTimer, 0, 0)
	var r recorder
	if !e.Step(&r) {
		t.Fatal("no event delivered")
	}
	if e.Now() != 0 {
		t.Fatalf("now = %d, want 0", e.Now())
	}
}

func TestHeapProperty(t *testing.T) {
	// Push random times, verify pops come out sorted by (time, seq).
	if err := quick.Check(func(times []uint16) bool {
		e := NewEngine()
		for i, tm := range times {
			e.ScheduleAt(int64(tm), KindTimer, int32(i), int64(i))
		}
		var r recorder
		for e.Step(&r) {
		}
		if len(r.events) != len(times) {
			return false
		}
		if !sort.SliceIsSorted(r.events, func(i, j int) bool {
			if r.events[i].Time != r.events[j].Time {
				return r.events[i].Time < r.events[j].Time
			}
			return r.events[i].Seq < r.events[j].Seq
		}) {
			return false
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	e := NewEngine()
	for i := int32(0); i < 10; i++ {
		e.Schedule(int64(i)*10, KindCPUStep, i, 0)
	}
	var r recorder
	e.Step(&r)
	e.Step(&r)

	c := e.CloneOver(nil)
	if c.Now() != e.Now() || c.Pending() != e.Pending() {
		t.Fatal("clone state mismatch")
	}
	// Drain both; they must deliver identical sequences.
	var ra, rb recorder
	for e.Step(&ra) {
	}
	for c.Step(&rb) {
	}
	if len(ra.events) != len(rb.events) {
		t.Fatalf("clone delivered %d events, original %d", len(rb.events), len(ra.events))
	}
	for i := range ra.events {
		if ra.events[i] != rb.events[i] {
			t.Fatalf("clone diverged at %d: %v vs %v", i, rb.events[i], ra.events[i])
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, KindTimer, 0, 0)
	c := e.CloneOver(nil)
	c.Schedule(5, KindWake, 1, 0) // must not leak into e
	if e.Pending() != 1 {
		t.Fatalf("clone mutation leaked into original (pending=%d)", e.Pending())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 100; i++ {
		e.Schedule(int64(i), KindTimer, 0, 0)
	}
	var r recorder
	ok := e.RunUntil(&r, func() bool { return len(r.events) >= 10 }, 0)
	if !ok || len(r.events) != 10 {
		t.Fatalf("RunUntil stopped at %d events, ok=%v", len(r.events), ok)
	}
	// Event budget exhaustion reports false.
	ok = e.RunUntil(&r, func() bool { return false }, 5)
	if ok {
		t.Fatal("RunUntil reported done on budget exhaustion")
	}
	if len(r.events) != 15 {
		t.Fatalf("budget not honored: %d events", len(r.events))
	}
}

func TestRunUntilEmptyQueue(t *testing.T) {
	e := NewEngine()
	var r recorder
	if e.RunUntil(&r, func() bool { return false }, 0) {
		t.Fatal("RunUntil on empty queue with unsatisfied done returned true")
	}
}

func TestKindString(t *testing.T) {
	for k := KindNone; k < numKinds; k++ {
		if k.String() == "invalid" {
			t.Fatalf("kind %d has no name", k)
		}
	}
	if Kind(200).String() != "invalid" {
		t.Fatal("out-of-range kind should be invalid")
	}
}

func BenchmarkScheduleStep(b *testing.B) {
	e := NewEngine()
	var r recorder
	for i := 0; i < b.N; i++ {
		e.Schedule(int64(i%64), KindCPUStep, 0, 0)
		if i%2 == 1 {
			e.Step(&r)
			e.Step(&r)
			r.events = r.events[:0]
		}
	}
}
