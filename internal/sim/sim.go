// Package sim provides the deterministic discrete-event simulation kernel
// that drives the whole machine model.
//
// Design constraints (they come straight from the paper's methodology):
//
//   - Determinism: popping order is a pure function of the schedule
//     history. Ties in time are broken by insertion sequence number, so
//     two runs that schedule the same events in the same order behave
//     bit-identically.
//   - Checkpointability: events are plain data (no closures), so the
//     pending-event queue can be deep-copied to snapshot a machine
//     mid-run and branch multiple perturbed futures from it.
//
// Simulated time is in nanoseconds. The modelled system clock is 1 GHz,
// so one nanosecond is one cycle; the rest of the code uses the two
// interchangeably.
package sim

// Kind identifies what an event means. The machine dispatches on it.
type Kind uint8

// Event kinds understood by the machine model. The kernel itself is
// agnostic; it only orders and delivers events.
const (
	KindNone     Kind = iota
	KindCPUStep       // a processor should advance; Node = CPU id
	KindBusGrant      // the snoop bus should service its queue head
	KindMemDone       // a memory request completed; Node = CPU id
	KindTimer         // scheduler quantum tick; Node = CPU id
	KindWake          // a thread became runnable; Arg = thread id
	KindIODone        // an I/O wait finished; Arg = thread id
	KindDrain         // bookkeeping tick (interval stats flush)
	numKinds
)

// kindNames names every event kind; the test suite asserts the table
// stays complete as kinds are added.
var kindNames = [numKinds]string{
	KindNone:     "none",
	KindCPUStep:  "cpu-step",
	KindBusGrant: "bus-grant",
	KindMemDone:  "mem-done",
	KindTimer:    "timer",
	KindWake:     "wake",
	KindIODone:   "io-done",
	KindDrain:    "drain",
}

func (k Kind) String() string {
	if k >= numKinds || kindNames[k] == "" {
		return "invalid"
	}
	return kindNames[k]
}

// Event is a pending simulation event. Events carry only plain data so
// the queue is trivially cloneable for checkpoints.
type Event struct {
	Time int64 // absolute simulated time, ns
	Seq  uint64
	Kind Kind
	Node int32 // component index (CPU id for per-CPU events)
	Arg  int64 // kind-specific payload (thread id, request token, ...)
}

// Handler consumes delivered events. The machine model implements it.
type Handler interface {
	HandleEvent(Event)
}

// Engine is the event queue plus the simulated clock.
type Engine struct {
	now   int64
	seq   uint64
	queue eventHeap
	// stepCount counts delivered events; useful as a runaway guard and
	// for performance reporting.
	stepCount uint64
}

// NewEngine returns an empty engine at time zero.
func NewEngine() *Engine {
	return &Engine{queue: make(eventHeap, 0, 1024)}
}

// Now returns the current simulated time in nanoseconds.
func (e *Engine) Now() int64 { return e.now }

// Steps returns the number of events delivered so far.
func (e *Engine) Steps() uint64 { return e.stepCount }

// Pending returns the number of events waiting in the queue.
func (e *Engine) Pending() int { return len(e.queue) }

// Schedule enqueues an event delay nanoseconds from now. Negative delays
// are clamped to zero (deliver as soon as possible, after already-queued
// events at the current time).
func (e *Engine) Schedule(delay int64, k Kind, node int32, arg int64) {
	if delay < 0 {
		delay = 0
	}
	e.ScheduleAt(e.now+delay, k, node, arg)
}

// ScheduleAt enqueues an event at absolute time t. Times in the past are
// clamped to now so the clock never runs backwards.
func (e *Engine) ScheduleAt(t int64, k Kind, node int32, arg int64) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.queue.push(Event{Time: t, Seq: e.seq, Kind: k, Node: node, Arg: arg})
}

// Step delivers the next event to h. It reports false when the queue is
// empty.
func (e *Engine) Step(h Handler) bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.Time
	e.stepCount++
	h.HandleEvent(ev)
	return true
}

// RunUntil delivers events until done() reports true, the queue empties,
// or maxEvents more events have been delivered (0 means no event bound).
// It returns true if done() was satisfied.
func (e *Engine) RunUntil(h Handler, done func() bool, maxEvents uint64) bool {
	budget := maxEvents
	for {
		if done() {
			return true
		}
		if maxEvents != 0 {
			if budget == 0 {
				return false
			}
			budget--
		}
		if !e.Step(h) {
			return done()
		}
	}
}

// CloneOver returns a deep copy of the engine — same clock, same
// pending events — built in the storage of spent, an engine nothing will
// use again (nil for none): the events are copied into spent's heap,
// which keeps its capacity, and spent is the engine returned. Used by
// machine snapshots.
func (e *Engine) CloneOver(spent *Engine) *Engine {
	c := spent
	if c == nil {
		c = new(Engine)
	}
	q := c.queue[:0]
	*c = *e
	c.queue = append(q, e.queue...)
	return c
}

// eventHeap is a binary min-heap ordered by (Time, Seq). A hand-rolled
// heap avoids container/heap's interface overhead on the hottest path in
// the simulator.
type eventHeap []Event

func (h eventHeap) less(i, j int) bool {
	if h[i].Time != h[j].Time {
		return h[i].Time < h[j].Time
	}
	return h[i].Seq < h[j].Seq
}

func (h *eventHeap) push(ev Event) {
	*h = append(*h, ev)
	q := *h
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
}

func (h *eventHeap) pop() Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	*h = q[:n]
	q = *h
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	return top
}
