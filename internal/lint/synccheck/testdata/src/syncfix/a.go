// Package syncfix exercises the two synccheck shapes: WaitGroup.Add
// inside the goroutine it accounts for, and locks held across channel
// sends.
package syncfix

import "sync"

// WaitGroup.Add placement.

func addInside() {
	var wg sync.WaitGroup
	go func() {
		wg.Add(1) // want `WaitGroup\.Add inside the spawned goroutine races the launch`
		defer wg.Done()
	}()
	wg.Wait()
}

func addOutside() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done() }()
	wg.Wait()
}

// Locks held across channel sends.

func sendHeld(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	ch <- 1 // want `channel send while holding mu`
	mu.Unlock()
}

func sendAfterUnlock(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	mu.Unlock()
	ch <- 1
}

func sendUnderDefer(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	defer mu.Unlock()
	ch <- 1 // want `channel send while holding mu`
}

func sendInBranch(ch chan int, b bool) {
	var mu sync.Mutex
	mu.Lock()
	if b {
		ch <- 1 // want `channel send while holding mu`
	}
	mu.Unlock()
}

func sendNonBlocking(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	select {
	case ch <- 1: // non-blocking: the default case makes this safe
	default:
	}
	mu.Unlock()
}

func sendSelectBlocking(ch chan int, done chan struct{}) {
	var mu sync.Mutex
	mu.Lock()
	select {
	case ch <- 1: // want `channel send while holding mu`
	case <-done:
	}
	mu.Unlock()
}

func sendRWRead(ch chan int) {
	var mu sync.RWMutex
	mu.RLock()
	ch <- 1 // want `channel send while holding mu`
	mu.RUnlock()
}

func sendInLiteral(ch chan int) func() {
	var mu sync.Mutex
	mu.Lock()
	f := func() {
		ch <- 1 // the literal runs later, outside the critical section
	}
	mu.Unlock()
	return f
}

// Regression guards for internal/obs and internal/report shapes the
// analyzer must not flag:

// report.Heartbeat's launch pattern: Add before go, Done deferred in
// the goroutine, a select loop inside.
func heartbeatLaunch(stop chan struct{}, beat func()) *sync.WaitGroup {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				beat()
			}
		}
	}()
	return &wg
}

// obs's observer pattern: methods on a pointer receiver locking with
// defer, mutating state, no channel traffic.
type observer struct {
	mu sync.Mutex
	n  int
}

func (o *observer) bump() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.n++
}

func allowedSend(ch chan int) {
	var mu sync.Mutex
	mu.Lock()
	//varsim:allow synccheck fixture exercises the escape hatch
	ch <- 1
	mu.Unlock()
}
