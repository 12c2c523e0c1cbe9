package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"time"

	"justintime"
	"justintime/internal/candgen"
)

// journeyMenus are the user-constraint menus the demo journey's profiles
// cycle through, one per profile in turn.
var journeyMenus = [][]string{
	nil,
	{"income <= old(income) * 1.4"},
	{"debt >= old(debt) * 0.5"},
	{"amount >= old(amount) * 0.8", "income <= old(income) * 1.6"},
}

// journeyVisit is one session to create: a profile and its user constraints.
type journeyVisit struct {
	profile []float64
	prefs   *justintime.ConstraintSet
}

// journeyVisits draws 16 profiles per seed around the five rejected
// applicants, each attribute jittered a few percent, and pairs profile i
// with menu i mod 4.
func journeyVisits(seeds int) ([]journeyVisit, error) {
	schema := justintime.LoanSchema()
	base := justintime.RejectedProfiles()
	round := func(v, unit float64) float64 { return math.Round(v/unit) * unit }
	var out []journeyVisit
	for seed := int64(1); seed <= int64(seeds); seed++ {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 16; i++ {
			b := base[i%len(base)]
			p := []float64{
				b[0] + float64(rng.Intn(5)-2), // age
				b[1],                          // household
				round(b[2]*(0.95+0.1*rng.Float64()), 100), // income
				round(b[3]*(0.9+0.2*rng.Float64()), 10),   // debt
				math.Max(0, b[4]+float64(rng.Intn(3)-1)),  // seniority
				round(b[5]*(0.95+0.1*rng.Float64()), 100), // amount
			}
			if err := schema.Validate(p); err != nil {
				return nil, fmt.Errorf("seed %d profile %d: %w", seed, i, err)
			}
			prefs := justintime.NewConstraintSet()
			for _, src := range journeyMenus[i%len(journeyMenus)] {
				prefs.Add(justintime.MustParseConstraint(src))
			}
			out = append(out, journeyVisit{p, prefs})
		}
	}
	return out, nil
}

// searchResult is one time point's search: the bits of every stored
// candidate row, in order, and the search's statistics.
type searchResult struct {
	rows     [][]uint64
	minDiff  float64
	bestP    float64
	evals    int
	poolSize int
}

// sessionSearches creates a session and splits its candidates table by time
// point. The table's columns are time, the attributes, diff, gap and p.
func sessionSearches(sys *justintime.System, v journeyVisit) ([]searchResult, error) {
	sess, err := sys.NewSession(v.profile, v.prefs)
	if err != nil {
		return nil, err
	}
	out := make([]searchResult, sys.Horizon()+1)
	for t, st := range sess.GenStats() {
		out[t] = searchResult{minDiff: math.Inf(1), evals: st.Evaluations, poolSize: st.PoolSize}
	}
	res, err := sess.SQL("SELECT * FROM candidates")
	if err != nil {
		return nil, err
	}
	for _, row := range res.Rows {
		t, _ := row[0].AsInt()
		bits := make([]uint64, len(row))
		for i, v := range row {
			f, _ := v.AsFloat()
			bits[i] = math.Float64bits(f)
		}
		r := &out[t]
		r.rows = append(r.rows, bits)
		diff, _ := row[len(row)-3].AsFloat()
		p, _ := row[len(row)-1].AsFloat()
		r.minDiff = math.Min(r.minDiff, diff)
		r.bestP = math.Max(r.bestP, p)
	}
	return out, nil
}

// span is the range of a set of values; ok is false while it is empty.
type span struct {
	lo, hi float64
	ok     bool
}

func (s *span) add(v float64) {
	if !s.ok || v < s.lo {
		s.lo = v
	}
	if !s.ok || v > s.hi {
		s.hi = v
	}
	s.ok = true
}

func (s span) format(verb string) string {
	if !s.ok {
		return "-"
	}
	return fmt.Sprintf("["+verb+", "+verb+"]", s.lo, s.hi)
}

// runE9 measures what the shrink phase's bisection rounds buy. It creates
// the same sessions at jitd's defaults with 12 rounds (the reference) and
// with fewer, and compares each time point's top-K with the reference's.
func runE9(quick bool) error {
	seeds := 10
	if quick {
		seeds = 2
	}
	demo, err := justintime.NewLoanDemo(justintime.DefaultLoanDemoConfig())
	if err != nil {
		return err
	}
	visits, err := journeyVisits(seeds)
	if err != nil {
		return err
	}
	def := candgen.DefaultConfig().ShrinkRounds
	rounds := []int{12, 6, 4, 3, 2}
	if quick {
		rounds = []int{12, def}
	}
	fmt.Printf("%d sessions (seeds 1-%d x 16 profiles, four constraint menus), %d searches; * marks the default\n",
		len(visits), seeds, len(visits)*(demo.System.Horizon()+1))
	fmt.Printf("%-7s %-10s %-14s %-12s %-12s %-11s %-10s %-18s %s\n", "rounds", "identical", "mean min diff",
		"mean best p", "evals/search", "pool/search", "ms/session", "changed: min diff", "changed: best p")
	var ref [][]searchResult
	var refDiff, refP float64 // the reference's mean min diff and mean best p
	for _, r := range rounds {
		cfg := demo.System.Config()
		cfg.CandGen.ShrinkRounds = r
		sys, err := justintime.NewSystem(cfg, demo.History)
		if err != nil {
			return err
		}
		got := make([][]searchResult, len(visits))
		start := time.Now()
		for i, v := range visits {
			if got[i], err = sessionSearches(sys, v); err != nil {
				return err
			}
		}
		wall := time.Since(start)
		if r == 12 {
			ref = got
		}
		var searches, identical, solved, evals, pool int
		var minDiff, bestP float64
		// Over the searches whose top-K differs from the reference's: the
		// range of the relative change in min diff and of the change in
		// best p.
		dDiff, dP := span{}, span{}
		for i := range got {
			for t, s := range got[i] {
				searches++
				if want := ref[i][t]; slices.EqualFunc(s.rows, want.rows, slices.Equal[[]uint64]) {
					identical++
				} else if len(s.rows) > 0 && len(want.rows) > 0 {
					if want.minDiff != 0 {
						dDiff.add(100 * (s.minDiff/want.minDiff - 1))
					}
					dP.add(s.bestP - want.bestP)
				}
				evals += s.evals
				pool += s.poolSize
				if len(s.rows) > 0 {
					solved++
					minDiff += s.minDiff
					bestP += s.bestP
				}
			}
		}
		minDiff /= float64(solved)
		bestP /= float64(solved)
		label := fmt.Sprint(r)
		if r == def {
			label += "*"
		}
		fmt.Printf("%-7s %4d/%-5d %-14.1f %-12.4f %-12.0f %-11.0f %-10.1f %-18s %s\n",
			label, identical, searches, minDiff, bestP,
			float64(evals)/float64(searches), float64(pool)/float64(searches),
			float64(wall.Microseconds())/1000/float64(len(visits)),
			dDiff.format("%+.1f%%"), dP.format("%+.3f"))
		if r == 12 {
			refDiff, refP = minDiff, bestP
		}
		// The quality bar the default count was chosen by.
		if r == def && (minDiff > 1.01*refDiff || bestP < 0.99*refP) {
			return fmt.Errorf("%d shrink rounds miss the quality bar: mean min diff %.1f vs %.1f, mean best p %.4f vs %.4f at 12",
				r, minDiff, refDiff, bestP, refP)
		}
	}
	fmt.Println("ms/session is wall time, sessions created one after another")
	fmt.Println("expected shape: the default stays within 1% of 12 rounds on mean min diff and mean best p (checked), at a fraction of the evaluations")
	return nil
}
