package justintime

import (
	"math"
	"slices"
	"testing"
)

// timePointCandidates splits a session's candidates table by time point.
// Each row is the bits of its values: time, the attributes, diff, gap, p.
func timePointCandidates(t *testing.T, sess *Session) [][][]uint64 {
	t.Helper()
	res, err := sess.SQL("SELECT * FROM candidates")
	if err != nil {
		t.Fatal(err)
	}
	out := make([][][]uint64, len(sess.GenStats()))
	for _, row := range res.Rows {
		tp, _ := row[0].AsInt()
		bits := make([]uint64, len(row))
		for i, v := range row {
			f, _ := v.AsFloat()
			bits[i] = math.Float64bits(f)
		}
		out[tp] = append(out[tp], bits)
	}
	return out
}

// minDiff is the smallest diff among one time point's candidate rows.
func minDiff(rows [][]uint64) float64 {
	m := math.Inf(1)
	for _, r := range rows {
		m = math.Min(m, math.Float64frombits(r[len(r)-3]))
	}
	return m
}

// TestShrinkRoundsAgreement checks that the default shrink round count
// returns what the 12 rounds it replaced return. Over jitd's defaults, the
// five rejected applicants and the four journey menus (20 sessions, 80
// searches), it compares each search's top-K at the default with its top-K
// at 12 rounds. Measured on amd64 at 3 rounds: 78 of 80 identical, and the
// mean minimal diff unchanged to four decimals (+0.007% over E9's 640
// searches). The bounds leave room for two more changed searches and a
// 0.1% growth, a tenth of the 1% quality bar the round count was chosen by.
func TestShrinkRoundsAgreement(t *testing.T) {
	demo := journeySystem(t)
	cfg := demo.System.Config()
	cfg.CandGen.ShrinkRounds = 12
	ref, err := NewSystem(cfg, demo.History)
	if err != nil {
		t.Fatal(err)
	}
	var searches, identical, solved int
	var diffDefault, diffRef float64
	for _, profile := range RejectedProfiles() {
		for _, prefs := range journeyPrefs() {
			got, err := demo.System.NewSession(profile, prefs)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.NewSession(profile, prefs)
			if err != nil {
				t.Fatal(err)
			}
			g, w := timePointCandidates(t, got), timePointCandidates(t, want)
			for tp := range w {
				searches++
				if slices.EqualFunc(g[tp], w[tp], slices.Equal[[]uint64]) {
					identical++
				}
				if len(g[tp]) > 0 && len(w[tp]) > 0 {
					solved++
					diffDefault += minDiff(g[tp])
					diffRef += minDiff(w[tp])
				}
			}
		}
	}
	growth := diffDefault/diffRef - 1
	t.Logf("%d/%d searches identical; mean min diff %.1f vs %.1f at 12 rounds (%+.4f%%)",
		identical, searches, diffDefault/float64(solved), diffRef/float64(solved), 100*growth)
	if searches != 80 {
		t.Fatalf("compared %d searches, want 80", searches)
	}
	if identical < 76 {
		t.Errorf("only %d/%d searches identical to 12 shrink rounds, want >= 76", identical, searches)
	}
	if growth > 0.001 {
		t.Errorf("mean min diff grew %.4f%% over 12 shrink rounds, bound 0.1%%", 100*growth)
	}
}
