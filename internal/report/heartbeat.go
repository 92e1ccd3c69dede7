package report

import (
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Heartbeat periodically prints a progress line to w (normally stderr),
// so that multi-minute `full` harness runs are visibly alive. It owns
// the ticker and the rendering policy only; what the line says comes
// from the caller's line source — the progress ledger's
// obs.FleetStatus.Line, which /status serves too.
//
// On an interactive terminal the line is redrawn in place with a
// spinner; when w is not a terminal (a pipe, a log file) or the
// NO_COLOR convention is in effect, each beat is a plain appended line
// with no escape sequences, so captured logs stay readable.
type Heartbeat struct {
	w      io.Writer
	styled bool
	frame  int
	line   func() string

	stopOnce sync.Once
	stop     chan struct{}
	wg       sync.WaitGroup
}

// spinnerFrames is the braille spinner cycled by styled heartbeats.
var spinnerFrames = []string{"⠋", "⠙", "⠹", "⠸", "⠼", "⠴", "⠦", "⠧", "⠇", "⠏"}

// styled reports whether w should get the interactive treatment:
// terminal control sequences are emitted only when w is a character
// device and the NO_COLOR environment convention (no-color.org) does
// not ask for plain output.
func styled(w io.Writer) bool {
	if os.Getenv("NO_COLOR") != "" {
		return false
	}
	f, ok := w.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}

// StartHeartbeat begins emitting line's current value to w every
// period; line is called on the heartbeat's own goroutine, so it must
// be safe to call concurrently with the run. Call Stop when done.
func StartHeartbeat(w io.Writer, period time.Duration, line func() string) *Heartbeat {
	h := &Heartbeat{
		w:      w,
		styled: styled(w),
		line:   line,
		stop:   make(chan struct{}),
	}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.beat()
			}
		}
	}()
	return h
}

// beat renders one heartbeat. Only the ticker goroutine calls it, so
// frame needs no locking.
func (h *Heartbeat) beat() {
	line := "heartbeat: " + h.line()
	if !h.styled {
		fmt.Fprintln(h.w, line)
		return
	}
	spin := spinnerFrames[h.frame%len(spinnerFrames)]
	h.frame++
	// \r + erase-line redraws in place; cyan spinner, default text.
	fmt.Fprintf(h.w, "\r\x1b[2K\x1b[36m%s\x1b[0m %s", spin, line)
}

// Stop ends the ticker goroutine (idempotent) and, in styled mode,
// clears the in-place line so the next write starts on a clean row.
func (h *Heartbeat) Stop() {
	h.stopOnce.Do(func() {
		close(h.stop)
		h.wg.Wait()
		if h.styled {
			fmt.Fprint(h.w, "\r\x1b[2K")
		}
	})
	h.wg.Wait()
}
