package trace

import (
	"strings"
	"testing"
)

func ev(t int64, k Kind, cpu, thr int32, arg int64) Event {
	return Event{TimeNS: t, Kind: k, CPU: cpu, Thread: thr, Arg: arg}
}

func TestBufferCapAndDrop(t *testing.T) {
	b := NewBuffer(2)
	b.Append(ev(1, Dispatch, 0, 0, 0))
	b.Append(ev(2, Dispatch, 0, 1, 0))
	b.Append(ev(3, Dispatch, 0, 2, 0))
	if b.Len() != 2 || b.Dropped != 1 {
		t.Fatalf("len=%d dropped=%d", b.Len(), b.Dropped)
	}
	// Unbounded.
	u := NewBuffer(0)
	for i := 0; i < 1000; i++ {
		u.Append(ev(int64(i), Wake, 0, 0, 0))
	}
	if u.Len() != 1000 || u.Dropped != 0 {
		t.Fatal("unbounded buffer dropped events")
	}
}

func TestBufferClone(t *testing.T) {
	b := NewBuffer(0)
	b.Append(ev(1, Dispatch, 0, 0, 0))
	c := b.Clone()
	c.Append(ev(2, Dispatch, 0, 1, 0))
	if b.Len() != 1 || c.Len() != 2 {
		t.Fatal("clone not isolated")
	}
}

func TestLockReport(t *testing.T) {
	events := []Event{
		ev(0, LockAcquire, 0, 1, 7),
		ev(10, LockContended, 1, 2, 7),
		ev(15, LockContended, 1, 2, 7),
		ev(20, LockRelease, 0, 1, 7),
		ev(20, LockAcquire, -1, 2, 7), // handoff
		ev(50, LockRelease, 2, 2, 7),
		ev(5, LockAcquire, 3, 3, 9),
		ev(6, LockRelease, 3, 3, 9),
	}
	rep := LockReport(events)
	if len(rep) != 2 {
		t.Fatalf("got %d locks", len(rep))
	}
	top := rep[0]
	if top.Lock != 7 || top.Acquisitions != 2 || top.Contentions != 2 {
		t.Fatalf("top lock stats wrong: %+v", top)
	}
	if top.HoldNS != 20+30 || top.MaxHoldNS != 30 {
		t.Fatalf("hold accounting wrong: %+v", top)
	}
	if got := top.ContentionRate(); got != 1.0 {
		t.Fatalf("contention rate %v", got)
	}
	if rep[1].Lock != 9 || rep[1].HoldNS != 1 {
		t.Fatalf("second lock wrong: %+v", rep[1])
	}
	// Release without matching acquire is ignored entirely.
	rep = LockReport([]Event{ev(1, LockRelease, 0, 5, 3)})
	if len(rep) != 0 {
		t.Fatalf("orphan release created entries: %+v", rep)
	}
}

func TestThreadTimeline(t *testing.T) {
	events := []Event{
		ev(0, Dispatch, 0, 1, 0),
		ev(100, Block, 0, 1, int64(ReasonIO)),
		ev(150, Wake, 0, 1, 0),
		ev(160, Dispatch, 0, 1, 0),
		ev(200, TxnEnd, 0, 1, 0),
		ev(260, Block, 0, 1, int64(ReasonLock)),
		ev(0, Dispatch, 1, 2, 0),
		ev(50, Block, 1, 2, int64(ReasonDone)),
	}
	tl := ThreadTimeline(events)
	if len(tl) != 2 {
		t.Fatalf("got %d threads", len(tl))
	}
	t1 := tl[0]
	if t1.Thread != 1 || t1.Dispatches != 2 || t1.Txns != 1 {
		t.Fatalf("thread 1 stats wrong: %+v", t1)
	}
	if t1.RunNS != 100+100 {
		t.Fatalf("run time %d, want 200", t1.RunNS)
	}
	if t1.Blocks[ReasonIO] != 1 || t1.Blocks[ReasonLock] != 1 {
		t.Fatalf("block reasons wrong: %+v", t1.Blocks)
	}
}

func TestCompareDispatches(t *testing.T) {
	a := []Event{
		ev(0, Dispatch, 0, 1, 0), ev(5, Wake, 0, 9, 0),
		ev(10, Dispatch, 1, 2, 0), ev(20, Dispatch, 0, 3, 0),
	}
	b := []Event{
		ev(0, Dispatch, 0, 1, 0),
		ev(11, Dispatch, 1, 2, 0), ev(21, Dispatch, 0, 4, 0),
	}
	d := CompareDispatches(a, b)
	if d.Prefix != 2 {
		t.Fatalf("prefix = %d, want 2", d.Prefix)
	}
	if d.ATimeNS != 20 || d.BTimeNS != 21 {
		t.Fatalf("divergence times %d/%d", d.ATimeNS, d.BTimeNS)
	}
	if d.AgreedAfter != 0 {
		t.Fatalf("agreement after divergence %v", d.AgreedAfter)
	}
	// Slots that agree again after the fork are counted.
	d = CompareDispatches(append(a[:4:4], ev(30, Dispatch, 1, 5, 0)), append(b[:3:3], ev(31, Dispatch, 1, 5, 0)))
	if d.Prefix != 2 || d.Compared != 4 || d.Agreed != 1 || d.AgreedAfter != 0.5 {
		t.Fatalf("re-agreement after divergence: %+v", d)
	}
	// Identical traces.
	d = CompareDispatches(a, a)
	if d.Prefix != 3 || d.AgreedAfter != 1 {
		t.Fatalf("identical traces: %+v", d)
	}
}

func TestFormatLockReport(t *testing.T) {
	rep := []LockStats{
		{Lock: 0, Acquisitions: 10, Contentions: 5, HoldNS: 1000, MaxHoldNS: 200},
		{Lock: 1, Acquisitions: 2},
		{Lock: 2, Acquisitions: 1},
	}
	out := FormatLockReport(rep, 2)
	if !strings.Contains(out, "acquires") || !strings.Contains(out, "1 more locks") {
		t.Fatalf("format wrong:\n%s", out)
	}
}

func TestKindAndReasonStrings(t *testing.T) {
	for k := Dispatch; k < numKinds; k++ {
		if k.String() == "invalid" {
			t.Errorf("kind %d unnamed", k)
		}
	}
	for r := ReasonLock; r <= ReasonDone; r++ {
		if r.String() == "invalid" {
			t.Errorf("reason %d unnamed", r)
		}
	}
	if Kind(99).String() != "invalid" || BlockReason(99).String() != "invalid" {
		t.Error("out-of-range names")
	}
}
