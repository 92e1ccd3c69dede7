// Package dram models the distributed memory controllers of the target
// system (one per node, block-interleaved home assignment) and the disk
// subsystem used by the workload model for database and log I/O.
//
// Controllers are simple queued servers: an access occupies a bank slot,
// so bursts of misses to one home node see queueing delay on top of the
// fixed 80 ns access time. That timing coupling is one of the ways small
// perturbations propagate between processors.
package dram

// Controllers models NumCtlrs memory controllers, each admitting a new
// access every AccessNS/Banks nanoseconds (a pipelined multi-bank
// approximation).
type Controllers struct {
	AccessNS int64 // DRAM access latency (80 ns in the paper)
	cycleNS  int64 // per-controller admission interval
	freeAt   []int64

	Accesses uint64
	StallNS  int64 // cumulative queueing delay (for stats)
}

// NewControllers builds n controllers with the given access latency and
// banks per controller.
func NewControllers(n int, accessNS int64, banks int) *Controllers {
	if n <= 0 || banks <= 0 || accessNS <= 0 {
		panic("dram: invalid controller parameters")
	}
	return &Controllers{
		AccessNS: accessNS,
		cycleNS:  accessNS / int64(banks),
		freeAt:   make([]int64, n),
	}
}

// Home returns the controller owning a block (block-interleaved).
func (c *Controllers) Home(block uint64) int {
	return int(block % uint64(len(c.freeAt)))
}

// Access performs an access to block starting no earlier than now and
// returns the time data is available at the controller pins. Queueing is
// modelled by the controller's admission interval.
func (c *Controllers) Access(block uint64, now int64) (dataReady int64) {
	h := c.Home(block)
	start := now
	if c.freeAt[h] > start {
		c.StallNS += c.freeAt[h] - start
		start = c.freeAt[h]
	}
	c.freeAt[h] = start + c.cycleNS
	c.Accesses++
	return start + c.AccessNS
}

// CloneOver deep-copies the controllers into the storage of spent,
// controllers nothing will use again (nil for none); spent is what it
// returns.
func (c *Controllers) CloneOver(spent *Controllers) *Controllers {
	cp := spent
	if cp == nil {
		cp = new(Controllers)
	}
	freeAt := cp.freeAt[:0]
	*cp = *c
	cp.freeAt = append(freeAt, c.freeAt...)
	return cp
}

// Disks models a set of FIFO disk servers (five data disks plus a
// dedicated log disk for the OLTP workload, per §3.1).
type Disks struct {
	freeAt []int64

	Requests uint64
	QueueNS  int64
}

// NewDisks creates n disks.
func NewDisks(n int) *Disks {
	if n <= 0 {
		panic("dram: need at least one disk")
	}
	return &Disks{freeAt: make([]int64, n)}
}

// N returns the number of disks.
func (d *Disks) N() int { return len(d.freeAt) }

// Submit enqueues a request of the given service time on disk id at time
// now and returns its completion time.
func (d *Disks) Submit(id int, now, serviceNS int64) (done int64) {
	start := now
	if d.freeAt[id] > start {
		d.QueueNS += d.freeAt[id] - start
		start = d.freeAt[id]
	}
	done = start + serviceNS
	d.freeAt[id] = done
	d.Requests++
	return done
}

// CloneOver deep-copies the disks into the storage of spent, disks
// nothing will use again (nil for none); spent is what it returns.
func (d *Disks) CloneOver(spent *Disks) *Disks {
	cp := spent
	if cp == nil {
		cp = new(Disks)
	}
	freeAt := cp.freeAt[:0]
	*cp = *d
	cp.freeAt = append(freeAt, d.freeAt...)
	return cp
}
