// Adaptive scheduling: the round-based drivers behind internal/sampling.
//
// The fixed-N methodology spends Experiment.Runs on every
// configuration. The adaptive drivers here submit runs in rounds
// instead, consulting the sampling package's pure decision procedures
// at a barrier after each round — once the index-ordered merge of the
// round is in hand — and stop, re-budget or prune from there. The
// determinism contract (docs/SAMPLING.md): every executed run keeps
// the exact (experiment, config hash, derived seed, run index)
// identity the fixed-N path would give it, decisions depend only on
// merged values (never completion order), and every decision is
// journaled (journal.StatusDecision) so a -resume replays the same
// stop/prune choices.

package core

import (
	"errors"
	"sync"

	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/sampling"
	"varsim/internal/stats"
)

// ObserveOnce returns a copy of the bundle whose Observe hook fires at
// most once per run key. The adaptive drivers wrap their resilience
// with it: under -resume a journaled prefix can overlap an in-flight
// round (a decision record lost to a torn write makes the driver
// resubmit a round whose runs partially replay), and without the guard
// the precision tracker would double-count the overlap — once from the
// cached replay and once from the live completion. Safe for the
// concurrent calls fleet workers make.
func (r Resilience) ObserveOnce() Resilience {
	fn := r.Observe
	if fn == nil {
		return r
	}
	var mu sync.Mutex
	seen := make(map[journal.Key]bool)
	r.Observe = func(k journal.Key, v machine.Result) {
		mu.Lock()
		dup := seen[k]
		seen[k] = true
		mu.Unlock()
		if !dup {
			fn(k, v)
		}
	}
	return r
}

// Rounds drives one arm of an adaptive schedule: successive Next calls
// execute (or replay) the arm's next k runs, [Plan.Lo, Plan.Lo+k).
// Each run keeps the identity a fixed-N Branch would assign it — seed
// and journal key derive from its global index — so a space assembled
// round by round is record-for-record the same space run fixed-N. The
// checkpoint is built lazily through Base, so an arm whose rounds
// replay wholly from the journal never pays its warmup. Finished
// branches are handed on from round to round (Plan's pool, made on the
// first round unless the caller's arms share one), so only the first
// round's first branches allocate their cache pages.
type Rounds struct {
	// Plan describes the arm's runs. Next sets Plan.N per round and
	// advances Plan.Lo, which is thus the runs taken so far.
	Plan       BranchPlan
	ConfigHash string
	// Base lazily provides the warmed checkpoint machine; it is called
	// at most once, on the first round that needs a live run.
	Base func() (*machine.Machine, error)

	base *machine.Machine
}

// Next runs the arm's next k runs, returning their results in index
// order. On a graceful drain it returns the completed subset, the
// global indices that never ran, and the *fleet.Incomplete error; the
// round is not counted as taken, so a resumed driver resubmits it.
func (r *Rounds) Next(k int) ([]machine.Result, []int, error) {
	if k <= 0 {
		return nil, nil, nil
	}
	r.Plan.N = k
	if r.Plan.spent == nil {
		r.Plan.spent = new(fleet.Pool[*machine.Machine])
	}
	b, err := replayOrBranch(r.ConfigHash, r.checkpoint, r.Plan)
	if err == nil {
		r.Plan.Lo += k
	}
	sp := b.Space()
	return sp.Results, sp.Missing, err
}

// checkpoint builds the arm's base on first use.
func (r *Rounds) checkpoint() (*machine.Machine, error) {
	if r.base == nil {
		var err error
		if r.base, err = r.Base(); err != nil {
			return nil, err
		}
	}
	return r.base, nil
}

// BarrierDecision is the replay-first decision point: if the resume
// cache holds a journaled decision under key, that decision is applied
// verbatim — the -resume contract that an interrupted run's stop and
// prune choices replay exactly. Otherwise compute() derives it from
// the merged values and the result is journaled for the next resume.
func BarrierDecision(res Resilience, key journal.Key, compute func() sampling.Decision) sampling.Decision {
	if rec, ok := res.Cache.Decision(key); ok {
		if d, err := sampling.DecodeDecision(rec); err == nil {
			return d
		}
	}
	d := compute()
	if res.Journal != nil {
		if rec, err := sampling.EncodeDecision(key, d); err == nil {
			// Append errors are sticky on the writer; the CLIs check
			// Writer.Err() at teardown rather than failing runs here.
			//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
			res.Journal.Append(rec)
		}
	}
	return d
}

// AdaptiveSpace runs the experiment under the adaptive stopping rule:
// a MinRuns pilot round, then rounds sized by the §5.1.1 estimate
// until the CI half-width meets the target (or the MaxRuns budget is
// spent). Experiment.Runs is the fixed-N baseline the returned arm's
// runs-saved accounting compares against; the space holds exactly the
// runs executed, each under its fixed-N identity.
func (e Experiment) AdaptiveSpace(t sampling.Target) (Space, sampling.Arm, error) {
	t = t.Normalize()
	arm := sampling.Arm{Experiment: e.Label, FixedN: e.Runs, Status: sampling.StatusIncomplete}
	if err := e.Validate(); err != nil {
		return Space{}, arm, err
	}
	res := e.Resilience.ObserveOnce()
	rounds := e.rounds(res)
	cfgHash := rounds.ConfigHash
	arm.ConfigHash = cfgHash
	sp := Space{Label: e.Label}
	next := t.MinRuns
	for round := 0; ; round++ {
		results, missing, err := rounds.Next(next)
		for _, r := range results {
			sp.Values = append(sp.Values, r.CPT)
			sp.Results = append(sp.Results, r)
		}
		arm.Executed = len(sp.Values)
		if err != nil {
			sp.Missing = missing
			arm.Rounds = round
			publishArm(t, arm)
			return sp, arm, err
		}
		sampling.CountRound(next)
		key := sampling.DecisionKey(e.Label, cfgHash, e.SeedBase, round)
		d := BarrierDecision(res, key, func() sampling.Decision {
			return sampling.Decide(sp.Values, round, t)
		})
		arm.Rounds = round + 1
		arm.RelPct, arm.Needed = d.RelPct, d.Needed
		switch d.Action {
		case sampling.ActionContinue:
			next = d.Next
			publishArm(t, arm)
		case sampling.ActionStop:
			arm.Status = sampling.StatusConverged
			sampling.CountSettle(arm.FixedN-arm.Executed, false)
			publishArm(t, arm)
			return sp, arm, nil
		default: // ActionBudget; Decide never prunes a lone arm
			arm.Status = sampling.StatusBudget
			sampling.CountSettle(arm.FixedN-arm.Executed, false)
			publishArm(t, arm)
			return sp, arm, nil
		}
	}
}

// rounds is the experiment as an adaptive arm: its space plan under the
// given resilience, checkpoint prepared on demand.
func (e Experiment) rounds(res Resilience) *Rounds {
	p := e.spacePlan()
	p.Resilience = res
	return &Rounds{Plan: p, ConfigHash: journal.ConfigHash(e.Config), Base: e.Prepare}
}

// publishArm refreshes the live sampling surface with a single-arm
// report — observe-only, never an input to a decision.
func publishArm(t sampling.Target, arm sampling.Arm) {
	rep := sampling.Report{Target: t, Arms: []sampling.Arm{arm}}
	rep.Finalize()
	sampling.Publish(rep)
}

// matrixArm is AdaptiveMatrix's per-configuration state.
type matrixArm struct {
	rounds  *Rounds
	sp      Space
	arm     sampling.Arm
	e       Experiment
	res     Resilience
	round   int // barrier decisions taken
	want    int // runs the last decision scheduled (0 once settled)
	settled bool
}

// settle marks the arm terminal with the given status and books the
// runs its fixed-N baseline would still have spent.
func (a *matrixArm) settle(status string) {
	a.settled = true
	a.want = 0
	a.rounds = nil // the arm's checkpoint is no use to the arms still running
	a.arm.Status = status
	sampling.CountSettle(a.arm.FixedN-a.arm.Executed, status == sampling.StatusPruned)
}

// apply folds one barrier decision into the arm's state.
func (a *matrixArm) apply(d sampling.Decision) {
	a.round = d.Round + 1
	a.arm.Rounds = a.round
	a.arm.RelPct, a.arm.Needed = d.RelPct, d.Needed
	switch d.Action {
	case sampling.ActionContinue:
		a.want = d.Next
	case sampling.ActionStop:
		a.settle(sampling.StatusConverged)
	case sampling.ActionPrune:
		a.settle(sampling.StatusPruned)
	default:
		a.settle(sampling.StatusBudget)
	}
}

// AdaptiveMatrix runs a configuration matrix (one experiment per
// configuration, typically sharing a workload) under a shared run
// budget — the two-phase design: a MinRuns pilot round sizes each
// arm's CoV, then each cycle allocates the remaining budget
// Neyman-style across the arms still in play and prunes every arm
// whose confidence interval has separated from the best arm's. The
// budget is Target.Budget runs in total (default: the sum of the
// arms' fixed-N runs); exhausting it settles the survivors with
// ActionBudget.
//
// Spaces and the report list arms in input order. A graceful drain
// marks the interrupted and unstarted arms incomplete and returns the
// partial spaces with the *fleet.Incomplete error.
func AdaptiveMatrix(es []Experiment, t sampling.Target) ([]Space, sampling.Report, error) {
	t = t.Normalize()
	rep := sampling.Report{Target: t}
	if len(es) == 0 {
		return nil, rep, errors.New("core: adaptive matrix needs at least one experiment")
	}
	arms := make([]*matrixArm, len(es))
	budget := t.Budget
	if budget <= 0 {
		budget = 0
		for _, e := range es {
			budget += e.Runs
		}
	}
	if floor := len(es) * t.MinRuns; budget < floor {
		budget = floor // the pilot phase always completes
	}
	// The arms take turns, so one pool serves them all: a branch is taken
	// over a spent one of any configuration (machine.SnapshotOver).
	var spent fleet.Pool[*machine.Machine]
	for i, e := range es {
		if err := e.Validate(); err != nil {
			return nil, rep, err
		}
		res := e.Resilience.ObserveOnce()
		rounds := e.rounds(res)
		rounds.Plan.spent = &spent
		arms[i] = &matrixArm{
			e: e, res: res, want: t.MinRuns,
			sp:     Space{Label: e.Label},
			arm:    sampling.Arm{Experiment: e.Label, ConfigHash: rounds.ConfigHash, FixedN: e.Runs, Status: sampling.StatusIncomplete},
			rounds: rounds,
		}
	}
	executed := 0
	finish := func(incomplete error) ([]Space, sampling.Report, error) {
		spaces := make([]Space, len(arms))
		rep.Arms = make([]sampling.Arm, len(arms))
		for i, a := range arms {
			spaces[i] = a.sp
			rep.Arms[i] = a.arm
		}
		rep.Finalize()
		sampling.Publish(rep)
		return spaces, rep, incomplete
	}
	for {
		// Replay-first: a journaled decision whose N equals the arm's
		// current sample took no runs before it (a prune or a
		// budget-exhaustion settle); apply it before spending budget.
		live := make([]*matrixArm, 0, len(arms))
		for _, a := range arms {
			if a.settled {
				continue
			}
			key := sampling.DecisionKey(a.e.Label, a.arm.ConfigHash, a.e.SeedBase, a.round)
			if rec, ok := a.res.Cache.Decision(key); ok {
				if d, err := sampling.DecodeDecision(rec); err == nil &&
					d.N == len(a.sp.Values) && d.Action != sampling.ActionContinue {
					a.apply(d)
					continue
				}
			}
			live = append(live, a)
		}
		if len(live) == 0 {
			break
		}
		// Allocation: everyone gets what their decision scheduled while
		// the budget lasts; a scarce budget is split Neyman-style.
		remaining := budget - executed
		if remaining <= 0 {
			for _, a := range live {
				key := sampling.DecisionKey(a.e.Label, a.arm.ConfigHash, a.e.SeedBase, a.round)
				d := BarrierDecision(a.res, key, func() sampling.Decision {
					d := sampling.Decide(a.sp.Values, a.round, t)
					if d.Action == sampling.ActionContinue {
						d.Action, d.Next, d.Alloc = sampling.ActionBudget, 0, nil
					}
					return d
				})
				a.apply(d)
			}
			break
		}
		chunks := matrixChunks(live, remaining, t)
		// Run phase: arms run their chunks in input order, each chunk
		// fanned out over the arm's fleet workers.
		var drained error
		for i, a := range live {
			if chunks[i] <= 0 {
				continue
			}
			results, missing, err := a.rounds.Next(chunks[i])
			for _, r := range results {
				a.sp.Values = append(a.sp.Values, r.CPT)
				a.sp.Results = append(a.sp.Results, r)
			}
			a.arm.Executed = len(a.sp.Values)
			executed += len(results)
			if err != nil {
				a.sp.Missing = missing
				drained = err
				break
			}
			sampling.CountRound(chunks[i])
		}
		if drained != nil {
			return finish(drained)
		}
		// Barrier phase: index-ordered decisions over the merged values.
		for i, a := range live {
			if chunks[i] <= 0 || a.settled {
				continue
			}
			key := sampling.DecisionKey(a.e.Label, a.arm.ConfigHash, a.e.SeedBase, a.round)
			round := a.round
			values := a.sp.Values
			d := BarrierDecision(a.res, key, func() sampling.Decision {
				return sampling.Decide(values, round, t)
			})
			a.apply(d)
		}
		// Prune phase: an arm whose CI separated from the best arm's
		// cannot win the comparison; settled arms still anchor the best.
		samples := make([][]float64, len(arms))
		for i, a := range arms {
			samples[i] = a.sp.Values
		}
		flags := sampling.Prune(samples, t.Confidence)
		for i, a := range arms {
			if a.settled || !flags[i] {
				continue
			}
			key := sampling.DecisionKey(a.e.Label, a.arm.ConfigHash, a.e.SeedBase, a.round)
			round := a.round
			values := a.sp.Values
			d := BarrierDecision(a.res, key, func() sampling.Decision {
				d := sampling.Decide(values, round, t)
				d.Action, d.Next, d.Alloc = sampling.ActionPrune, 0, nil
				return d
			})
			a.apply(d)
		}
		// Live surface refresh at the cycle barrier.
		snapshot := sampling.Report{Target: t, Arms: make([]sampling.Arm, len(arms))}
		for i, a := range arms {
			snapshot.Arms[i] = a.arm
		}
		snapshot.Finalize()
		sampling.Publish(snapshot)
	}
	return finish(nil)
}

// matrixChunks sizes each live arm's next round. When the scheduled
// wants fit the remaining budget everyone proceeds as decided; when
// they do not, the remainder is Neyman-allocated by each arm's
// standard deviation (capped at its want), concentrating the last runs
// where the variance lives. At least one run is always assigned so a
// scarce budget still drains to zero deterministically.
func matrixChunks(live []*matrixArm, remaining int, t sampling.Target) []int {
	wants := make([]int, len(live))
	total := 0
	for i, a := range live {
		wants[i] = a.want
		total += a.want
	}
	if total <= remaining {
		return wants
	}
	sds := make([]float64, len(live))
	for i, a := range live {
		sds[i] = stats.StdDev(a.sp.Values)
	}
	chunks := sampling.NeymanAllocate(sds, remaining)
	assigned := 0
	for i := range chunks {
		if chunks[i] > wants[i] {
			chunks[i] = wants[i]
		}
		assigned += chunks[i]
	}
	if assigned == 0 {
		chunks[0] = 1
	}
	return chunks
}
