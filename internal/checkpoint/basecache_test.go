package checkpoint

import (
	"reflect"
	"sync"
	"testing"

	"varsim/internal/machine"
)

// drive runs a short measurement window and returns its Result — the
// observable a branch must agree on with a fresh replay.
func drive(t *testing.T, m *machine.Machine, seed uint64) machine.Result {
	t.Helper()
	m.SetPerturbSeed(seed)
	res, err := m.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestBaseCacheAgreesWithReplay: a branch served from the cache must be
// indistinguishable from a machine rebuilt by full recipe replay.
func TestBaseCacheAgreesWithReplay(t *testing.T) {
	r := testRecipe()
	fresh, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := drive(t, fresh, 11)

	c := NewBaseCache()
	for i := 0; i < 3; i++ { // miss, then two hits
		m, err := c.Build(r)
		if err != nil {
			t.Fatal(err)
		}
		if got := drive(t, m, 11); !reflect.DeepEqual(got, want) {
			t.Fatalf("cache build %d diverged from fresh replay:\ngot  %+v\nwant %+v", i, got, want)
		}
	}
	if len(c.bases) != 1 {
		t.Fatalf("cache rebuilt the same recipe %d times", len(c.bases))
	}
	r2 := r
	r2.WarmupTxns = 40
	if _, err := c.Build(r2); err != nil {
		t.Fatal(err)
	}
	if len(c.bases) != 2 {
		t.Fatalf("distinct recipe did not get its own base (len %d)", len(c.bases))
	}
}

// TestBaseCacheConcurrent: concurrent Builds of one recipe replay it
// once and every caller's branch matches the sequential reference.
func TestBaseCacheConcurrent(t *testing.T) {
	r := testRecipe()
	fresh, err := r.Build()
	if err != nil {
		t.Fatal(err)
	}
	want := drive(t, fresh, 5)

	c := NewBaseCache()
	const callers = 8
	got := make([]machine.Result, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := c.Build(r)
			if err != nil {
				errs[i] = err
				return
			}
			m.SetPerturbSeed(5)
			got[i], errs[i] = m.Run(15)
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("caller %d diverged from the sequential reference:\ngot  %+v\nwant %+v", i, got[i], want)
		}
	}
	if len(c.bases) != 1 {
		t.Fatalf("concurrent Builds replayed the recipe %d times", len(c.bases))
	}
}

// TestBaseCacheBaseStaysFrozen: handing out branches must never mutate
// the cached base — two branches taken before and after heavy use of an
// intermediate branch run identically.
func TestBaseCacheBaseStaysFrozen(t *testing.T) {
	r := testRecipe()
	c := NewBaseCache()
	m1, err := c.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	want := drive(t, m1, 9)

	mid, err := c.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mid.Run(50); err != nil { // churn a branch hard
		t.Fatal(err)
	}
	m2, err := c.Build(r)
	if err != nil {
		t.Fatal(err)
	}
	if got := drive(t, m2, 9); !reflect.DeepEqual(got, want) {
		t.Fatalf("base mutated by an earlier branch:\ngot  %+v\nwant %+v", got, want)
	}
}
