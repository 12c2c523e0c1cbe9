package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"justintime"
	"justintime/internal/candgen"
)

// demoSystem builds the shared loan-demo system used by E1-E3.
func demoSystem(quick bool, method string) (*justintime.LoanDemo, error) {
	cfg := justintime.DefaultLoanDemoConfig()
	cfg.Method = method
	if quick {
		cfg.Eras = 5
		cfg.RowsPerEra = 300
		cfg.T = 2
	}
	return justintime.NewLoanDemo(cfg)
}

// runE1 exercises the full Figure-1 architecture once and reports what each
// component produced.
func runE1(quick bool) error {
	start := time.Now()
	demo, err := demoSystem(quick, "ki")
	if err != nil {
		return err
	}
	sys := demo.System
	trainDur := time.Since(start)

	prefs := justintime.NewConstraintSet(justintime.MustParseConstraint("income <= old(income) * 1.4"))
	start = time.Now()
	sess, err := sys.NewSession(justintime.RejectedProfiles()[0], prefs)
	if err != nil {
		return err
	}
	genDur := time.Since(start)
	n, err := sess.CandidateCount()
	if err != nil {
		return err
	}

	fmt.Printf("models generator      : %d models (M_t, delta_t), trained in %v\n", len(sys.Models()), trainDur.Round(time.Millisecond))
	for t, m := range sys.Models() {
		fmt.Printf("  t=%d  model=%-12s delta=%.3f\n", t, m.Model.Name(), m.Threshold)
	}
	fmt.Printf("temporal update func  : %d temporal inputs x_0..x_%d\n", sys.Horizon()+1, sys.Horizon())
	fmt.Printf("candidates generators : %d independent generators, %v wall clock\n", sys.Horizon()+1, genDur.Round(time.Millisecond))
	fmt.Printf("database              : tables %v, %d candidate rows\n", sess.DB().TableNames(), n)
	res, err := sess.SQL("SELECT time, COUNT(*) AS n, MAX(p) AS best FROM candidates GROUP BY time ORDER BY time")
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

// runE2 answers the six Figure-2 questions on a fixed scenario and
// cross-checks each SQL answer against a direct Go computation over the
// candidates table.
func runE2(quick bool) error {
	demo, err := demoSystem(quick, "ki")
	if err != nil {
		return err
	}
	sess, err := demo.System.NewSession(justintime.RejectedProfiles()[0],
		justintime.NewConstraintSet(justintime.MustParseConstraint("income <= old(income) * 1.4")))
	if err != nil {
		return err
	}
	insights, err := sess.AskAll("income", 0.7)
	if err != nil {
		return err
	}
	for i, ins := range insights {
		fmt.Printf("Q%d [%s]\n  SQL   : %s\n  answer: %s\n", i+1, ins.Question.Kind, oneLine(ins.SQL), ins.Text)
	}

	// Cross-check Q1 and Q4 against direct computation.
	res, err := sess.SQL("SELECT time, diff FROM candidates")
	if err != nil {
		return err
	}
	minT := int64(-1)
	minDiff := -1.0
	for _, row := range res.Rows {
		t, _ := row[0].AsInt()
		d, _ := row[1].AsFloat()
		if d == 0 && (minT == -1 || t < minT) {
			minT = t
		}
		if minDiff < 0 || d < minDiff {
			minDiff = d
		}
	}
	fmt.Printf("cross-check: Go-side Q1 answer = %v, Q4 answer = %.2f (must match the SQL above)\n", minT, minDiff)
	return nil
}

// runE3 replays the demonstration's five rejected applicants through the
// three-screen journey.
func runE3(quick bool) error {
	demo, err := demoSystem(quick, "ki")
	if err != nil {
		return err
	}
	sys := demo.System
	prefsPerApplicant := [][]string{
		{"income <= old(income) * 1.2"}, // John cannot raise income much
		{"amount = old(amount)"},        // needs the full amount
		{"debt >= old(debt) * 0.5"},     // can halve debt at most
		{},                              // unconstrained
		{"income <= old(income) * 1.3", "gap <= 2"}, // small, focused plans
	}
	fmt.Printf("%-3s %-55s %-10s %s\n", "id", "profile", "candidates", "sample insight (minimal features set)")
	for i, profile := range justintime.RejectedProfiles() {
		prefs := justintime.NewConstraintSet()
		for _, src := range prefsPerApplicant[i] {
			prefs.Add(justintime.MustParseConstraint(src))
		}
		sess, err := sys.NewSession(profile, prefs)
		if err != nil {
			return err
		}
		n, err := sess.CandidateCount()
		if err != nil {
			return err
		}
		ins, err := sess.Ask(justintime.Question{Kind: justintime.QMinimalFeatures})
		if err != nil {
			return err
		}
		fmt.Printf("%-3d %-55s %-10d %s\n", i, sys.Schema().Format(profile), n, truncate(ins.Text, 90))
	}
	return nil
}

// runE6 measures the wall-clock speedup of running the T+1 independent
// candidate generators with increasing worker counts, and with the default
// (workers=0: min(T+1, GOMAXPROCS), each worker reusing one search's memory
// for its next time point).
func runE6(quick bool) error {
	cfg := justintime.DefaultLoanDemoConfig()
	cfg.T = 7 // 8 generators
	if quick {
		cfg.Eras = 5
		cfg.RowsPerEra = 300
		cfg.T = 3
	}
	fmt.Printf("machine: %d CPU core(s), GOMAXPROCS=%d - speedup is bounded by this\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0))
	fmt.Printf("%-12s %-12s %s\n", "workers", "wall clock", "speedup")
	var base time.Duration
	for _, workers := range []int{1, 2, 4, 8, 0} {
		cfg.Workers = workers
		demo, err := justintime.NewLoanDemo(cfg)
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := demo.System.NewSession(justintime.RejectedProfiles()[0], nil); err != nil {
			return err
		}
		dur := time.Since(start)
		if workers == 1 {
			base = dur
		}
		label := fmt.Sprint(workers)
		if workers == 0 {
			label = "0 (default)"
		}
		fmt.Printf("%-12s %-12v %.2fx\n", label, dur.Round(time.Millisecond), float64(base)/float64(dur))
	}
	fmt.Println("expected shape: near-linear until workers reach the number of generators or cores")
	return nil
}

// runE7 compares diverse (MMR) and greedy top-k selection against a large-k
// reference on answer quality for the optimization questions (Q2/Q4/Q5).
func runE7(quick bool) error {
	demo, err := demoSystem(quick, "last")
	if err != nil {
		return err
	}
	sys := demo.System
	models := sys.Models()

	profiles := rejectedFromData(demo, models[0], 20)
	if quick {
		profiles = profiles[:8]
	}

	type agg struct {
		bestP, minDiff float64
		times          int
		minGap         float64
	}
	run := func(k int, lambda float64) (agg, error) {
		var a agg
		count := 0
		for _, profile := range profiles {
			cands, _, err := candgen.Generate(candgen.Problem{
				Schema:    sys.Schema(),
				Model:     models[0].Model,
				Threshold: models[0].Threshold,
				Input:     profile,
			}, candgen.Config{K: k, BeamWidth: 2 * k, MaxIters: 20, Patience: 3, DiversityPenalty: lambda, ShrinkRounds: 12, Seed: 3})
			if err != nil {
				return a, err
			}
			if len(cands) == 0 {
				continue
			}
			count++
			bestP, minDiff, minGap := 0.0, -1.0, -1.0
			for _, c := range cands {
				if c.Confidence > bestP {
					bestP = c.Confidence
				}
				if minDiff < 0 || c.Diff < minDiff {
					minDiff = c.Diff
				}
				if minGap < 0 || float64(c.Gap) < minGap {
					minGap = float64(c.Gap)
				}
			}
			a.bestP += bestP
			a.minDiff += minDiff
			a.minGap += minGap
		}
		if count > 0 {
			a.bestP /= float64(count)
			a.minDiff /= float64(count)
			a.minGap /= float64(count)
		}
		return a, nil
	}

	ref, err := run(40, 0.5)
	if err != nil {
		return err
	}
	diverse, err := run(6, 0.5)
	if err != nil {
		return err
	}
	greedy, err := run(6, 0)
	if err != nil {
		return err
	}
	fmt.Printf("%-16s %-12s %-14s %-10s\n", "selection", "avg best p", "avg min diff", "avg min gap")
	fmt.Printf("%-16s %-12.3f %-14.1f %-10.2f\n", "reference k=40", ref.bestP, ref.minDiff, ref.minGap)
	fmt.Printf("%-16s %-12.3f %-14.1f %-10.2f\n", "diverse k=6", diverse.bestP, diverse.minDiff, diverse.minGap)
	fmt.Printf("%-16s %-12.3f %-14.1f %-10.2f\n", "greedy k=6", greedy.bestP, greedy.minDiff, greedy.minGap)
	fmt.Println("expected shape: diverse k=6 stays close to the k=40 reference on every metric")
	return nil
}

// rejectedFromData samples applicant profiles from the last era that the
// present model rejects.
func rejectedFromData(demo *justintime.LoanDemo, m justintime.TimedModel, n int) [][]float64 {
	var out [][]float64
	last := demo.Dataset.Era(demo.Dataset.Eras() - 1)
	for _, ex := range last {
		if len(out) >= n {
			break
		}
		if m.Model.Predict(ex.X) <= m.Threshold {
			out = append(out, ex.X)
		}
	}
	return out
}

func oneLine(s string) string {
	return strings.Join(strings.Fields(s), " ")
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
