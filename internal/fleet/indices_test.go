package fleet

import (
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
)

// TestIndicesGlobalIdentity pins the contract core.Branch relies on to
// hand the fleet only the runs a journal does not hold: with Indices
// set, job i is presented as Indices[i] to the job closure and
// OnResult, while its result still merges at position i — so a space
// can be submitted as any ascending set of run indices without
// renumbering runs.
func TestIndicesGlobalIdentity(t *testing.T) {
	indices := []int{1, 3, 4, 9}
	var mu sync.Mutex
	var jobSaw, onResultSaw []int
	results, err := Run(Options[int]{
		Workers: 2,
		Indices: indices,
		OnResult: func(gi int, v int, err error) {
			mu.Lock()
			onResultSaw = append(onResultSaw, gi)
			mu.Unlock()
		},
	}, len(indices), func(gi int) (int, error) {
		mu.Lock()
		jobSaw = append(jobSaw, gi)
		mu.Unlock()
		return 100 + gi, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []int{101, 103, 104, 109}; !reflect.DeepEqual(results, want) {
		t.Errorf("results = %v, want %v (position order, global values)", results, want)
	}
	for _, c := range []struct {
		name string
		saw  []int
	}{{"job", jobSaw}, {"OnResult", onResultSaw}} {
		sort.Ints(c.saw)
		if !reflect.DeepEqual(c.saw, indices) {
			t.Errorf("%s saw %v, want the global indices %v", c.name, c.saw, indices)
		}
	}
}

// TestIndicesErrorAndDrain pins the remaining global surfaces:
// JobError.Index and Incomplete.Missing both report the named indices,
// and Done/Total count this call's jobs.
func TestIndicesErrorAndDrain(t *testing.T) {
	indices := []int{20, 22, 27}
	boom := errors.New("boom")
	_, err := Run(Options[int]{Workers: 1, Indices: indices}, len(indices), func(gi int) (int, error) {
		if gi == 22 {
			return 0, boom
		}
		return gi, nil
	})
	var je *JobError
	if !errors.As(err, &je) || je.Index != 22 {
		t.Fatalf("err = %v, want *JobError at global index 22", err)
	}

	stop := make(chan struct{})
	_, err = Run(Options[int]{Workers: 1, Indices: indices, Stop: stop}, len(indices), func(gi int) (int, error) {
		close(stop) // drain after the first job: the other two are missing
		return gi, nil
	})
	var inc *Incomplete
	if !errors.As(err, &inc) {
		t.Fatalf("err = %v, want *Incomplete", err)
	}
	if !reflect.DeepEqual(inc.Missing, []int{22, 27}) || inc.Done != 1 || inc.Total != 3 {
		t.Errorf("Incomplete = %d/%d done, missing %v; want 1/3, missing [22 27]", inc.Done, inc.Total, inc.Missing)
	}
}
