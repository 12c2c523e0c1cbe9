package candgen

import (
	"context"
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"justintime/internal/constraints"
	"justintime/internal/feature"
	"justintime/internal/mlmodel"
)

// selectTopKEager is the eager MMR selection that selectTopK replaced, kept
// verbatim as its reference: every round computes one similarity per
// unpicked entry against the vector selected last.
func (s *search) selectTopKEager() []Candidate {
	n := int32(s.pool.len())
	k, lambda := s.cfg.K, s.cfg.DiversityPenalty
	if int(n) <= k {
		// The whole pool is returned, best-ranked first.
		k, lambda = int(n), 0
	}
	sqrtD := math.Sqrt(float64(s.p.Schema.Dim()))
	similarity := func(a, b []float64) float64 {
		d := feature.ScaledDiff(a, b, s.scales) / sqrtD
		return 1 / (1 + 10*d)
	}
	s.picked = resize(s.picked, int(n))
	picked := s.picked
	clear(picked)
	// maxSim[i] tracks each unpicked candidate's similarity to the closest
	// already-selected one; it is updated incrementally as candidates are
	// selected, so each MMR round computes one new similarity per candidate
	// instead of rescanning the whole selected set. The first selection
	// sets every entry, so stale values from an earlier search never count.
	var maxSim []float64
	if lambda != 0 {
		s.maxSim = resize(s.maxSim, int(n))
		maxSim = s.maxSim
	}
	selected := make([]Candidate, 0, k)
	var lastX []float64 // the vector selected last
	for len(selected) < k {
		best, bestScore := int32(-1), 0.0
		for i := int32(0); i < n; i++ {
			if picked[i] {
				continue
			}
			q := s.pool.entry(i).q
			score := q
			if lambda != 0 && lastX != nil {
				if sim := similarity(s.pool.vec(i), lastX); len(selected) == 1 || sim > maxSim[i] {
					maxSim[i] = sim
				}
				score = (1-lambda)*q - lambda*maxSim[i]
			}
			if best < 0 || score > bestScore || score == bestScore && s.ranksBefore(i, best) {
				best, bestScore = i, score
			}
		}
		picked[best] = true
		lastX = s.pool.vec(best)
		e := s.pool.entry(best)
		// The pool's vectors share arena chunks; hand out copies so the
		// caller does not pin them.
		selected = append(selected, Candidate{
			X: feature.Clone(lastX), Diff: e.diff, Gap: e.gap, Confidence: e.conf, q: e.q,
		})
	}
	if lambda != 0 {
		// Present best-quality first.
		sort.Slice(selected, func(a, b int) bool { return selected[a].q > selected[b].q })
	}
	return selected
}

// cutBeamSort is the beam cut that cutBeam replaced, kept verbatim as its
// reference: a full sort.Slice of the move indexes by descending rank,
// truncated to the beam width.
func cutBeamSort(ranks []float64, beamWidth int) []int {
	order := make([]int, 0, len(ranks))
	for i := range ranks {
		order = append(order, i)
	}
	sort.Slice(order, func(a, b int) bool { return ranks[order[a]] > ranks[order[b]] })
	if len(order) > beamWidth {
		order = order[:beamWidth]
	}
	return order
}

// selectCase is one random selection problem: a pool and the selection
// parameters.
type selectCase struct {
	d      int
	scales []float64
	vecs   [][]float64
	qs     []float64
	k      int
	lambda float64
}

// randomSelectCase draws a pool of up to maxN entries that stresses the
// selection's tie and NaN rules: qualities of both signs, some from a
// small set of values (equal q), vectors on a coarse grid and copied from earlier entries
// (equal similarities), an occasional NaN quality or NaN coordinate (NaN
// scores), pools no larger than K, and λ = 0. A zero d draws the dimension
// too.
func randomSelectCase(rng *rand.Rand, maxN, d int) selectCase {
	if d == 0 {
		d = 1 + rng.Intn(4)
	}
	c := selectCase{d: d, k: 1 + rng.Intn(10)}
	c.lambda = [...]float64{0, 0.25, 0.5, 0.5, 0.9}[rng.Intn(5)]
	for i := 0; i < c.d; i++ {
		c.scales = append(c.scales, [...]float64{1, 10, 100, 0}[rng.Intn(4)])
	}
	n := rng.Intn(maxN + 1)
	if rng.Intn(5) == 0 {
		n = rng.Intn(c.k + 1)
	}
	tiedQ := rng.Intn(2) == 0
	for i := 0; i < n; i++ {
		var x []float64
		switch {
		case i > 0 && rng.Intn(4) == 0:
			x = append(x, c.vecs[rng.Intn(i)]...)
		default:
			for j := 0; j < c.d; j++ {
				x = append(x, float64(rng.Intn(5))*c.scales[j]/4)
			}
			if rng.Intn(40) == 0 {
				x[rng.Intn(c.d)] = math.NaN()
			}
		}
		q := 2*rng.Float64() - 1
		if tiedQ {
			q = float64(rng.Intn(5)-2) / 2
		}
		if rng.Intn(30) == 0 {
			q = math.NaN()
		}
		c.vecs, c.qs = append(c.vecs, x), append(c.qs, q)
	}
	return c
}

// load fills s's pool with c's entries and sets the selection parameters.
// Keys are distinct but not in slot order, so ranksBefore's key tie-break
// does not follow the slots.
func (c selectCase) load(t testing.TB, s *search) {
	fields := make([]feature.Field, c.d)
	for j := range fields {
		fields[j] = feature.Field{Name: string(rune('a' + j)), Kind: feature.Continuous, Min: 0, Max: 1}
	}
	schema, err := feature.NewSchema(fields...)
	if err != nil {
		t.Fatal(err)
	}
	s.p.Schema, s.scales = schema, c.scales
	s.cfg.K, s.cfg.DiversityPenalty = c.k, c.lambda
	s.pool.reset(c.d)
	key := make([]byte, keyBytes*c.d)
	for i, x := range c.vecs {
		binary.LittleEndian.PutUint64(key, uint64(len(c.vecs)-i)*2654435761%1000003)
		slot, added := s.pool.keys.insert(key)
		if !added {
			t.Fatalf("duplicate test key for entry %d", i)
		}
		s.pool.set(slot, poolEntry{diff: float64(i), conf: 1, q: c.qs[i], gap: i % 3}, x)
	}
}

// sameCandidates reports whether a and b hold the same candidates in the
// same order, comparing every float by its bits.
func sameCandidates(a, b []Candidate) bool {
	if len(a) != len(b) {
		return false
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		if len(a[i].X) != len(b[i].X) || a[i].Gap != b[i].Gap ||
			!same(a[i].Diff, b[i].Diff) || !same(a[i].Confidence, b[i].Confidence) || !same(a[i].q, b[i].q) {
			return false
		}
		for j := range a[i].X {
			if !same(a[i].X[j], b[i].X[j]) {
				return false
			}
		}
	}
	return true
}

// TestSelectTopKMatchesEagerScan compares the lazy selection with the eager
// reference on seeded random pools (equal qualities, duplicate vectors, NaN
// qualities and similarities, pools no larger than K, λ = 0), each on a
// fresh search.
func TestSelectTopKMatchesEagerScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 3000; n++ {
		c := randomSelectCase(rng, 60, 0)
		var lazy, eager search
		c.load(t, &lazy)
		c.load(t, &eager)
		if got, want := lazy.selectTopK(), eager.selectTopKEager(); !sameCandidates(got, want) {
			t.Fatalf("case %d (n=%d d=%d K=%d λ=%g q=%v):\n lazy  %v\n eager %v",
				n, len(c.qs), c.d, c.k, c.lambda, c.qs, got, want)
		}
	}
}

// TestWarmSearcherSelectionMatchesFresh runs the lazy selection on one
// search after another, each pool smaller than the one before, so that a
// maxSim value or a refresh count left by a larger pool would change the
// picks; every result must equal the eager reference on a fresh search. It
// then runs Generate on a Searcher whose previous search kept a larger pool
// and compares it with a fresh search.
func TestWarmSearcherSelectionMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	var warm search
	for n := 0; n < 300; n++ {
		// One dimension throughout, so the pool keeps its chunks.
		c := randomSelectCase(rng, 400-n, 2)
		if n%2 == 0 {
			c.lambda = 0.5
		}
		var eager search
		c.load(t, &warm)
		c.load(t, &eager)
		if got, want := warm.selectTopK(), eager.selectTopKEager(); !sameCandidates(got, want) {
			t.Fatalf("case %d (n=%d K=%d λ=%g): warm %v, eager %v", n, len(c.qs), c.k, c.lambda, got, want)
		}
	}

	schema := twoDSchema(t)
	model := trainedLogistic(t)
	big := DefaultConfig()
	big.ShrinkRounds = 12
	small := DefaultConfig()
	small.ShrinkRounds = 1
	var sr Searcher
	for _, in := range [][]float64{{20, 40}, {45, 10}, {30, 30}} {
		p := Problem{Schema: schema, Model: model, Threshold: 0.5, Input: in,
			Constraints: constraints.NewSet(constraints.MustParse("a <= old(a) + 20"))}
		if _, st, err := sr.Generate(context.Background(), Problem{Schema: schema, Model: model, Threshold: 0.5, Input: in}, big); err != nil {
			t.Fatal(err)
		} else if st.PoolSize < 100 {
			t.Fatalf("warm-up pool has %d entries, want a large one", st.PoolSize)
		}
		got, gotSt, err := sr.Generate(context.Background(), p, small)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := Generate(p, small)
		if err != nil {
			t.Fatal(err)
		}
		if gotSt != wantSt || !sameCandidates(got, want) {
			t.Fatalf("input %v: warm Searcher %v %+v, fresh %v %+v", in, got, gotSt, want, wantSt)
		}
	}
}

// TestCutBeamMatchesSort compares the bounded beam cut with the full
// sort.Slice reference on seeded random ranks: heavy ties, NaN, ±0, fewer
// moves than the beam width, and distinct ranks. It also requires that both
// the select and the fallback sort were exercised.
func TestCutBeamMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var s search
	fallbacks, selects := 0, 0
	for n := 0; n < 5000; n++ {
		w := 1 + rng.Intn(20)
		s.cfg.BeamWidth = w
		m := rng.Intn(3 * w)
		if rng.Intn(3) == 0 {
			m = 1 + rng.Intn(700)
		}
		levels := 1 + rng.Intn(2*w+2)
		ranks := make([]float64, m)
		for i := range ranks {
			switch r := rng.Intn(100); {
			case r == 0:
				ranks[i] = math.NaN()
			case r == 1:
				ranks[i] = math.Copysign(0, -1)
			case rng.Intn(2) == 0:
				ranks[i] = float64(rng.Intn(levels))
			default:
				ranks[i] = rng.Float64()
			}
		}
		if rng.Intn(4) == 0 {
			for i := range ranks {
				ranks[i] = rng.NormFloat64() // distinct: the select path
			}
		}
		ranked := make([]rankedMove, m)
		for i, r := range ranks {
			ranked[i] = rankedMove{r: r, i: int32(i)}
		}
		got := s.cutBeam(ranked)
		want := cutBeamSort(ranks, w)
		if m > 0 && &got[0] == &ranked[0] {
			fallbacks++
		} else {
			selects++
		}
		if len(got) != len(want) {
			t.Fatalf("case %d: kept %d moves, want %d", n, len(got), len(want))
		}
		for j := range want {
			if int(got[j].i) != want[j] || math.Float64bits(got[j].r) != math.Float64bits(ranks[want[j]]) {
				t.Fatalf("case %d (w=%d, ranks %v): kept %v, want indexes %v", n, w, ranks, got, want)
			}
		}
	}
	if fallbacks == 0 || selects == 0 {
		t.Fatalf("fallback sort ran %d times, select %d times; both must run", fallbacks, selects)
	}
}

// journeySearch runs one search on a loan-shaped 6-D problem with one user
// constraint at the pipeline's configuration, and returns it with its pool
// (about 2 300 entries, near a journey search's) and its last beam still
// in place.
func journeySearch(b *testing.B) *search {
	b.Helper()
	schema, err := feature.NewSchema(
		feature.Field{Name: "age", Kind: feature.Integer, Min: 18, Max: 80, Immutable: true},
		feature.Field{Name: "household", Kind: feature.Ordinal, Min: 0, Max: 4},
		feature.Field{Name: "income", Kind: feature.Continuous, Min: 0, Max: 200000},
		feature.Field{Name: "debt", Kind: feature.Continuous, Min: 0, Max: 50000},
		feature.Field{Name: "seniority", Kind: feature.Integer, Min: 0, Max: 40},
		feature.Field{Name: "amount", Kind: feature.Continuous, Min: 1000, Max: 100000},
	)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	X := make([][]float64, 2000)
	y := make([]bool, len(X))
	for i := range X {
		X[i] = []float64{
			18 + float64(rng.Intn(63)), float64(rng.Intn(5)), rng.Float64() * 200000,
			rng.Float64() * 50000, float64(rng.Intn(41)), 1000 + rng.Float64()*99000,
		}
		y[i] = X[i][2]/2000-X[i][3]/500+X[i][4]-X[i][5]/4000-5*X[i][1] > 10
	}
	model, err := mlmodel.TrainLogistic(X, y, mlmodel.DefaultLogisticConfig())
	if err != nil {
		b.Fatal(err)
	}
	p := Problem{
		Schema: schema, Model: model, Threshold: 0.5, Input: []float64{29, 1, 48000, 1900, 4, 30000},
		Constraints: constraints.NewSet(constraints.MustParse("income <= old(income) * 1.4")),
	}
	sr := new(Searcher)
	if _, _, err := sr.Generate(context.Background(), p, DefaultConfig()); err != nil {
		b.Fatal(err)
	}
	return &sr.s
}

// Benchmark results land here so the compiler keeps the measured calls.
var (
	selectSink []Candidate
	cutSink    []rankedMove
)

// BenchmarkSelectTopK times the diverse top-K pick alone (K = 8, λ = 0.5)
// on a journey-sized pool.
func BenchmarkSelectTopK(b *testing.B) {
	s := journeySearch(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		selectSink = s.selectTopK()
	}
	b.ReportMetric(float64(s.pool.len()), "pool")
}

// BenchmarkBeamCut times keeping the best 16 of a journey-sized move set:
// the distinct moves that the same search's final beam proposes, clamped
// and ranked as the beam ranks them.
func BenchmarkBeamCut(b *testing.B) {
	s := journeySearch(b)
	d := s.p.Schema.Dim()
	var moves []float64
	for _, st := range s.states {
		moves = s.proposeMoves(moves, st.x)
	}
	var seen keyTable
	seen.reset(keyBytes * d)
	var ranked []rankedMove
	for off := 0; off < len(moves); off += d {
		mv := moves[off : off+d]
		s.box.ClampInto(mv, s.p.Schema.ClampInto(mv, mv))
		if _, added := seen.insert(s.key(mv)); !added {
			continue
		}
		st := beamState{x: mv, conf: s.p.Model.Predict(s.p.Schema.Clamp(mv))}
		ranked = append(ranked, rankedMove{r: s.rank(st), i: int32(len(ranked))})
	}
	work := make([]rankedMove, len(ranked))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, ranked)
		cutSink = s.cutBeam(work)
	}
	b.ReportMetric(float64(len(ranked)), "moves")
}
