package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"varsim/internal/journal"
	"varsim/internal/machine"
	"varsim/internal/precision"
	"varsim/internal/report"
	"varsim/internal/sampling"
)

// runPrecision implements the "precision" verb: replay a result
// journal through the streaming precision tracker and print the
// achieved-vs-requested precision table — how tight each
// configuration's confidence interval already is and how many more
// runs §5.1.1 says are needed. It reads the journal read-only, so it
// works on a finished sweep, mid-resume on a partial one, and while a
// live varsim is still appending:
//
//	varsim precision -journal out/
//	varsim precision -journal out/ -rel-err 0.02 -confidence 0.99
//
// Every settled ok record feeds the tracker, latest-wins exactly like
// the resume cache, in (experiment, config, index) order — a varsim
// journal's runs in index order, however many an adaptive schedule
// took. A fixed-N spec.json (written by -journal) adds how many of its
// runs have not settled yet.
func runPrecision(args []string) error {
	fs := flag.NewFlagSet("varsim precision", flag.ExitOnError)
	var (
		dir     = fs.String("journal", "", "journal directory to replay (written by -journal; partial -resume journals work too)")
		relErr  = fs.Float64("rel-err", sampling.DefaultRelErr, "requested relative error of the mean (a fraction: 0.04 = ±4%)")
		confLvl = fs.Float64("confidence", sampling.DefaultConfidence, "confidence level of the interval, in (0,1)")
	)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: varsim precision -journal dir [-rel-err R] [-confidence C]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("precision: name the journal directory with -journal")
	}
	// journal.Load treats a missing file as an empty journal (resume
	// ergonomics); for a diagnostic verb a missing directory should be
	// a direct error, not "no settled runs".
	if _, err := os.Stat(*dir); err != nil {
		return fmt.Errorf("precision: %w (was this directory written by -journal?)", err)
	}

	lr, err := journal.Load(filepath.Join(*dir, journal.FileName))
	if err != nil {
		return err
	}
	trk := precision.New(*relErr, *confLvl)

	latest := map[journal.Key]journal.Record{}
	for _, rec := range lr.Records {
		if rec.Status == journal.StatusOK {
			latest[rec.Key] = rec
		}
	}
	spec, serr := loadSpec(filepath.Join(*dir, specFile))
	if len(latest) == 0 && serr != nil {
		return fmt.Errorf("precision: no settled runs in %s", *dir)
	}
	keys := make([]journal.Key, 0, len(latest))
	//varsim:allow maporder key collection only; sorted below
	for k := range latest {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if a.ConfigHash != b.ConfigHash {
			return a.ConfigHash < b.ConfigHash
		}
		return a.Index < b.Index
	})
	for _, k := range keys {
		var r machine.Result
		if err := json.Unmarshal(latest[k].Result, &r); err != nil {
			return fmt.Errorf("precision: %s: %w", k, err)
		}
		trk.Observe(k.Experiment, k.ConfigHash, r.CPT)
	}
	report.WritePrecision(os.Stdout, trk.Report())
	if serr == nil && spec.Adaptive == nil && len(keys) < spec.Runs {
		fmt.Printf("(%d/%d runs not settled yet; resume with: varsim -resume %s)\n",
			spec.Runs-len(keys), spec.Runs, *dir)
	}
	return nil
}
