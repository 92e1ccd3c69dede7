// Adaptive scheduling: the one round-based driver behind
// internal/sampling.
//
// The fixed-N methodology spends Experiment.Runs on every
// configuration. The adaptive scheduler submits runs in rounds instead:
// a run phase in which every arm takes the round its last decision
// scheduled, then a barrier at which — the index-ordered merge of the
// round in hand — the sampling package's pure decision procedures say
// who stops, who continues and with how many runs: DecideMatrix
// settles a matrix's arms pair by pair against the best (AdaptiveMatrix)
// and is Decide, the precision stop, for the one-arm AdaptiveSpace;
// DecideStrata decides a time sample's strata jointly and grows them
// evenly (AdaptiveTimeSample). The strata are arms of one checkpoint
// walk (Experiment.strata), of which the fixed-N TimeSample takes a
// single round. The determinism contract (docs/SAMPLING.md): every
// executed run keeps the exact (experiment, config hash, derived seed,
// run index) identity the fixed-N path would give it, decisions depend
// only on merged values (never completion order), and every decision is
// journaled (journal.StatusDecision) so a -resume replays them.

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
	// want is the size of the arm's next round; 0 once the arm (or the
	// time sample its stratum belongs to) is settled.
	want int
}

// arm is the experiment as an adaptive arm: its space plan, checkpoint
// prepared on demand, branches handed on through spent.
func (e Experiment) arm(spent *fleet.Pool[*machine.Machine]) *arm {
	p := e.spacePlan()
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
	if a.ckpt == nil {
		var err error
		if a.ckpt, err = a.base(); err != nil {
			return nil, err
		}
	}
	return a.ckpt, nil
}

// run is the schedule's run phase: the arms take their rounds in input
// order, each round fanned out over the arm's fleet workers, up to the
// first one a drain or a failed run cuts short.
func run(arms []*arm) error {
	for _, a := range arms {
		if err := a.next(); err != nil {
			return err
		}
	}
	return nil
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
func (a *arm) decide(compute func(round int) sampling.Decision) sampling.Decision {
	res := a.plan.Resilience
	key := sampling.DecisionKey(a.plan.Label, a.cfgHash, a.plan.SeedBase, a.rep.Rounds)
	if rec, ok := res.Cache.Decision(key); ok {
		if d, err := sampling.DecodeDecision(rec); err == nil {
			a.apply(d)
			return d
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
	return d
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

// publish assembles the arms' report, in input order, and refreshes the
// live sampling surface with it — observe-only, never an input to a
// decision.
func publish(t sampling.Target, arms []*arm) sampling.Report {
	rep := sampling.Report{Target: t, Arms: make([]sampling.Arm, len(arms))}
	for i, a := range arms {
		rep.Arms[i] = a.rep
	}
	rep.Finalize()
	sampling.Publish(rep)
	return rep
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
		arms[i].want = t.MinRuns
	}
	var err error
	for live(arms) {
		if err = run(arms); err != nil {
			break
		}
		// Barrier: one DecideMatrix over the merged values, unless every
		// live arm replays its decision; live arms share a round count.
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
						ds = sampling.DecideMatrix(samples, open, round, t)
					}
					return ds[i]
				})
			}
		}
		publish(t, arms) // live surface refresh at the cycle barrier
	}
	spaces := make([]Space, len(arms))
	for i, a := range arms {
		spaces[i] = a.sp
	}
	return spaces, publish(t, arms), err
}

// AdaptiveTimeSample is the stratified counterpart of TimeSample: the
// checkpoints are strata of the workload's lifetime (§5.2), replication
// is scheduled adaptively on the equal-weight stratified estimator
// (sampling.DecideStrata / stats.StratifiedCI), and each stratum is an
// arm of Experiment.strata: its base is a snapshot of the one machine
// walked forward through the checkpoints, taken on the first round that
// must execute a run, every run a copy-on-write branch of it.
//
// The strata are TimeSample's, run identities included, so a
// journal written fixed-N replays into the adaptive schedule and vice
// versa. The strata are decided jointly: one barrier decision a round,
// journaled under the synthetic label "<label>@strata", and one report
// line. Every Target count applies per stratum, and every stratum takes
// an equal share of each round; e.Runs per stratum is the fixed-N
// baseline the line's runs-saved accounting uses.
func (e Experiment) AdaptiveTimeSample(checkpoints []int64, t sampling.Target) ([]Space, sampling.Arm, error) {
	t = t.Normalize()
	h := len(checkpoints)
	// The joint arm takes no runs of its own: it is the strata's
	// decision sequence and their line in the report.
	joint := e.arm(nil)
	joint.plan.Label += "@strata"
	joint.rep.FixedN = e.Runs * h
	if err := e.validateCheckpoints(checkpoints); err != nil {
		return nil, joint.rep, err
	}
	var spent fleet.Pool[*machine.Machine]
	strata := e.strata(checkpoints, &spent)
	for _, a := range strata {
		a.want = t.MinRuns // the pilot: every stratum earns a CI
	}
	spaces := make([]Space, h)
	values := make([][]float64, h)
	for joint.rep.Status == sampling.StatusIncomplete {
		err := run(strata)
		ran := 0
		joint.rep.Executed = 0
		for ci, a := range strata {
			spaces[ci], values[ci] = a.sp, a.sp.Values
			ran += a.want
			joint.rep.Executed += len(a.sp.Values)
		}
		if err != nil {
			return spaces, joint.rep, err
		}
		sampling.CountRound(ran)
		d := joint.decide(func(round int) sampling.Decision { return sampling.DecideStrata(values, round, t) })
		for _, a := range strata {
			a.want = d.Next / h
		}
	}
	return spaces, joint.rep, nil
}
