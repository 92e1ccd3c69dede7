// Adaptive scheduling: the one round loop behind internal/sampling.
//
// The fixed-N methodology spends Experiment.Runs on every
// configuration. The adaptive scheduler submits runs in rounds instead:
// a run phase in which every arm takes the round its last decision
// scheduled, then a barrier at which — the index-ordered merge of the
// round in hand — a barrier rule of the sampling package decides each
// arm: DecideMatrix over a matrix's configurations (AdaptiveMatrix; for
// one arm, AdaptiveSpace, it is Decide, the precision stop), or
// DecideStrata over a time sample's strata, decided jointly and grown
// evenly (AdaptiveTimeSample). The strata are arms of one checkpoint
// walk (Experiment.strata), of which the fixed-N TimeSample takes a
// single round. The determinism contract (docs/SAMPLING.md): every
// executed run keeps the exact (experiment, config hash, derived seed,
// run index) identity the fixed-N path would give it, decisions depend
// only on merged values (never completion order), and every decision is
// journaled under the arm it settles (journal.StatusDecision) so a
// -resume replays them.

package core

import (
	"errors"

	"varsim/internal/fleet"
	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/sampling"
)

// arm is one line of an adaptive schedule — a configuration of a matrix
// or a stratum of a time sample: the runs it takes round by round, the
// space they accumulate into, and the report line and journaled
// decisions that settle it.
//
// Each run keeps the identity a fixed-N Branch would assign it — seed
// and journal key derive from its global index — so a space assembled
// round by round is record-for-record the same space run fixed-N. The
// checkpoint is built lazily, so an arm whose rounds replay wholly from
// the journal never pays its warmup, and finished branches are handed
// on from round to round and arm to arm (plan's pool), so only a
// schedule's first branches allocate their cache pages.
type arm struct {
	// plan describes the arm's runs and carries its resilience; next
	// sets plan.N per round and advances plan.Lo, which is thus the runs
	// taken so far. Its Label and SeedBase also file the arm's decisions.
	plan    BranchPlan
	cfgHash string
	// base provides the warmed checkpoint machine; it is called at most
	// once, by the first round that needs a live run.
	base func() (*machine.Machine, error)
	ckpt *machine.Machine

	sp  Space
	rep sampling.Arm // rep.Rounds is the barrier decisions taken
	// want is the size of the arm's next round; 0 once the arm is
	// settled.
	want int
}

// arm is the experiment as an adaptive arm: its plan, checkpoint
// prepared on demand, branches handed on through spent.
func (e Experiment) arm(spent *fleet.Pool[*machine.Machine]) *arm {
	p := e.BranchPlan()
	p.spent = spent
	cfgHash := journal.ConfigHash(e.Config)
	return &arm{
		plan: p, cfgHash: cfgHash, base: e.Prepare,
		sp:  Space{Label: e.Label},
		rep: sampling.Arm{Experiment: e.Label, ConfigHash: cfgHash, FixedN: e.Runs, Status: sampling.StatusIncomplete},
	}
}

// next runs (or replays) the arm's next want runs, [plan.Lo,
// plan.Lo+want), and folds them into its space in index order. On a
// graceful drain the space keeps the completed subset and lists the
// global indices that never ran, and the *fleet.Incomplete error is
// returned; the round is not counted as taken, so a resumed schedule
// resubmits it.
func (a *arm) next() error {
	if a.want <= 0 {
		return nil
	}
	a.plan.N = a.want
	b, err := branch(a.cfgHash, a.checkpoint, a.plan)
	sp := b.Space()
	a.sp.Values = append(a.sp.Values, sp.Values...)
	a.sp.Results = append(a.sp.Results, sp.Results...)
	a.rep.Executed = len(a.sp.Values)
	if err != nil {
		a.sp.Missing = sp.Missing
		return err
	}
	a.plan.Lo += a.want
	return nil
}

// checkpoint builds the arm's base on first use.
func (a *arm) checkpoint() (*machine.Machine, error) {
	var err error
	if a.ckpt == nil {
		a.ckpt, err = a.base() // nil on error: the next call tries again
	}
	return a.ckpt, err
}

// live reports whether any arm still has a round to take.
func live(arms []*arm) bool {
	for _, a := range arms {
		if a.want > 0 {
			return true
		}
	}
	return false
}

// decide is the replay-first decision point: if the resume cache holds
// a journaled decision for the arm's next barrier, that decision is
// applied verbatim — the -resume contract that an interrupted run's
// choices replay exactly. Otherwise compute derives it from the merged
// values and the result is journaled for the next resume. Either way
// the decision is folded into the arm.
func (a *arm) decide(compute func(round int) sampling.Decision) {
	res := a.plan.Resilience
	key := sampling.DecisionKey(a.plan.Label, a.cfgHash, a.plan.SeedBase, a.rep.Rounds)
	if rec, ok := res.Cache.Decision(key); ok {
		if d, err := sampling.DecodeDecision(rec); err == nil {
			a.apply(d)
			return
		}
	}
	d := compute(a.rep.Rounds)
	if res.Journal != nil {
		if rec, err := sampling.EncodeDecision(key, d); err == nil {
			// Append errors are sticky on the writer; the CLIs check
			// Writer.Err() at teardown rather than failing runs here.
			//varsim:allow stickyerr fire-and-forget by design: Writer.Err is checked at CLI teardown
			res.Journal.Append(rec)
		}
	}
	a.apply(d)
}

// apply folds one barrier decision into the arm: the report line, the
// next round's size and, for a terminal action, the status and the runs
// its fixed-N baseline would still have spent.
func (a *arm) apply(d sampling.Decision) {
	a.rep.Rounds++
	a.rep.RelPct, a.rep.Needed = d.RelPct, d.Needed
	a.want = d.Next // 0 unless the action is to continue (Decision.Validate)
	switch d.Action {
	case sampling.ActionContinue:
		return
	case sampling.ActionStop:
		a.rep.Status = sampling.StatusConverged
	case sampling.ActionDecided:
		a.rep.Status = sampling.StatusDecided
	default:
		a.rep.Status = sampling.StatusBudget
	}
	a.ckpt, a.base = nil, nil // the arm's checkpoint is no use to the arms still running
	sampling.CountSettle(a.rep.FixedN - a.rep.Executed)
}

// rounds is the one round loop: every arm takes a MinRuns pilot round,
// then, at each barrier, the rule (sampling.DecideMatrix or
// sampling.DecideStrata: one decision per live arm) settles arms or
// sizes their next round, until no arm is live. Live arms share a round
// count, and each decision is journaled under the arm it settles. The
// spaces are the arms', in order; a drain or a failed run cuts the loop
// short with the arms' partial spaces and its error.
func rounds(arms []*arm, t sampling.Target,
	rule func([][]float64, []bool, int, sampling.Target) []sampling.Decision) ([]Space, sampling.Report, error) {
	t = t.Normalize()
	for _, a := range arms {
		a.want = t.MinRuns
	}
	var err error
loop:
	for live(arms) {
		// Run phase: the arms take their rounds in input order, each fanned
		// out over its fleet workers, up to the first one a drain or a
		// failed run cuts short.
		for _, a := range arms {
			if err = a.next(); err != nil {
				break loop
			}
		}
		// Barrier: one rule over the merged values, unless every live arm
		// replays its decision.
		samples, open := make([][]float64, len(arms)), make([]bool, len(arms))
		for i, a := range arms {
			samples[i], open[i] = a.sp.Values, a.want > 0
		}
		var ds []sampling.Decision
		for i, a := range arms {
			if open[i] {
				sampling.CountRound(a.want)
				a.decide(func(round int) sampling.Decision {
					if ds == nil {
						ds = rule(samples, open, round, t)
					}
					return ds[i]
				})
			}
		}
	}
	spaces := make([]Space, len(arms))
	rep := sampling.Report{Target: t, Arms: make([]sampling.Arm, len(arms))}
	for i, a := range arms {
		spaces[i], rep.Arms[i] = a.sp, a.rep
	}
	rep.Finalize()
	return spaces, rep, err
}

// AdaptiveSpace runs the experiment under the adaptive stopping rule:
// a MinRuns pilot round, then rounds sized by the §5.1.1 estimate
// until the CI half-width meets the target (or the MaxRuns budget is
// spent) — the one-arm AdaptiveMatrix. Experiment.Runs is the fixed-N
// baseline the returned arm's runs-saved accounting compares against;
// the space holds exactly the runs executed, each under its fixed-N
// identity.
func (e Experiment) AdaptiveSpace(t sampling.Target) (Space, sampling.Arm, error) {
	spaces, rep, err := AdaptiveMatrix([]Experiment{e}, t)
	if len(spaces) == 0 {
		return Space{}, sampling.Arm{Experiment: e.Label, FixedN: e.Runs, Status: sampling.StatusIncomplete}, err
	}
	return spaces[0], rep.Arms[0], err
}

// AdaptiveMatrix runs a configuration matrix (one experiment per
// configuration, typically sharing a workload) to its verdict: a
// MinRuns pilot round, then at each barrier sampling.DecideMatrix
// settles every arm whose comparison with the best arm is decided, or
// whose budget is spent, and gives the rest one more round. Each arm
// spends up to Target.MaxRuns; there is no budget across arms.
//
// Spaces and the report list arms in input order. A graceful drain
// marks the interrupted and unstarted arms incomplete and returns the
// partial spaces with the *fleet.Incomplete error.
func AdaptiveMatrix(es []Experiment, t sampling.Target) ([]Space, sampling.Report, error) {
	t = t.Normalize()
	if len(es) == 0 {
		return nil, sampling.Report{Target: t}, errors.New("core: adaptive matrix needs at least one experiment")
	}
	// The arms take turns, so one pool serves them all: a branch is taken
	// over a spent one of any configuration (machine.SnapshotOver).
	var spent fleet.Pool[*machine.Machine]
	arms := make([]*arm, len(es))
	for i, e := range es {
		if err := e.Validate(); err != nil {
			return nil, sampling.Report{Target: t}, err
		}
		arms[i] = e.arm(&spent)
	}
	return rounds(arms, t, sampling.DecideMatrix)
}

// AdaptiveTimeSample is the stratified counterpart of TimeSample: the
// checkpoints are strata of the workload's lifetime (§5.2), replication
// is scheduled adaptively on the equal-weight stratified estimator
// (sampling.DecideStrata / stats.StratifiedCI), and each stratum is an
// arm of Experiment.strata: its base is a snapshot of the one machine
// walked forward through the checkpoints, taken on the first round that
// must execute a run, every run a copy-on-write branch of it.
//
// The strata are TimeSample's, run identities included, so a journal
// written fixed-N replays into the adaptive schedule and vice versa.
// They are decided jointly, each decision journaled under its stratum's
// label "<label>@<ck>", and report as one line. Every Target count
// applies per stratum; e.Runs per stratum is the fixed-N baseline.
func (e Experiment) AdaptiveTimeSample(checkpoints []int64, t sampling.Target) ([]Space, sampling.Arm, error) {
	if err := e.validateCheckpoints(checkpoints); err != nil {
		return nil, sampling.Arm{Experiment: e.Label, ConfigHash: journal.ConfigHash(e.Config),
			FixedN: e.Runs * len(checkpoints), Status: sampling.StatusIncomplete}, err
	}
	var spent fleet.Pool[*machine.Machine]
	spaces, rep, err := rounds(e.strata(checkpoints, &spent), t, sampling.DecideStrata)
	// The strata share every decision, so any one's line is the
	// sample's but for its label and runs.
	line := rep.Arms[0]
	line.Experiment, line.Executed, line.FixedN = e.Label, rep.Executed, rep.FixedN
	return spaces, line, err
}
