package dram

import (
	"testing"
	"testing/quick"
)

func TestHomeInterleave(t *testing.T) {
	c := NewControllers(16, 80, 4)
	for b := uint64(0); b < 64; b++ {
		if c.Home(b) != int(b%16) {
			t.Fatalf("Home(%d) = %d", b, c.Home(b))
		}
	}
}

func TestAccessLatency(t *testing.T) {
	c := NewControllers(4, 80, 4)
	if got := c.Access(0, 1000); got != 1080 {
		t.Fatalf("uncontended access ready at %d, want 1080", got)
	}
}

func TestAccessQueueing(t *testing.T) {
	c := NewControllers(1, 80, 4) // admission every 20ns
	t1 := c.Access(0, 0)          // starts 0, ready 80
	t2 := c.Access(0, 0)          // starts 20, ready 100
	t3 := c.Access(0, 0)          // starts 40, ready 120
	if t1 != 80 || t2 != 100 || t3 != 120 {
		t.Fatalf("pipelined accesses ready at %d,%d,%d", t1, t2, t3)
	}
	if c.StallNS != 20+40 {
		t.Fatalf("stall accounting = %d, want 60", c.StallNS)
	}
}

func TestDifferentControllersIndependent(t *testing.T) {
	c := NewControllers(2, 80, 1)
	c.Access(0, 0)
	if got := c.Access(1, 0); got != 80 {
		t.Fatalf("controller 1 should be idle, ready at %d", got)
	}
}

func TestAccessMonotone(t *testing.T) {
	// Property: data-ready times on one controller never decrease when
	// requests arrive in time order.
	if err := quick.Check(func(gaps []uint8) bool {
		c := NewControllers(1, 80, 2)
		now, last := int64(0), int64(0)
		for _, g := range gaps {
			now += int64(g)
			ready := c.Access(0, now)
			if ready < last || ready < now+80 {
				return false
			}
			last = ready
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestControllersClone(t *testing.T) {
	c := NewControllers(2, 80, 1)
	c.Access(0, 0)
	cp := c.CloneOver(nil)
	cp.Access(0, 0)
	if c.freeAt[0] != 80 {
		t.Fatal("clone mutation leaked")
	}
}

func TestDisksFIFO(t *testing.T) {
	d := NewDisks(2)
	if d.N() != 2 {
		t.Fatal("N wrong")
	}
	t1 := d.Submit(0, 0, 1000)
	t2 := d.Submit(0, 100, 1000) // queues behind t1
	t3 := d.Submit(1, 100, 1000) // other disk idle
	if t1 != 1000 || t2 != 2000 || t3 != 1100 {
		t.Fatalf("disk completions %d,%d,%d", t1, t2, t3)
	}
	if d.QueueNS != 900 {
		t.Fatalf("queue accounting %d, want 900", d.QueueNS)
	}
}

func TestDisksClone(t *testing.T) {
	d := NewDisks(1)
	d.Submit(0, 0, 500)
	cp := d.CloneOver(nil)
	cp.Submit(0, 0, 500)
	if d.freeAt[0] != 500 {
		t.Fatal("clone mutation leaked")
	}
}

func TestPanicsOnBadParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewControllers(0, 80, 1) },
		func() { NewControllers(1, 0, 1) },
		func() { NewControllers(1, 80, 0) },
		func() { NewDisks(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}
