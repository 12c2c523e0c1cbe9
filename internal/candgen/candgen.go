// Package candgen generates Decision Altering Candidates (Definition II.3):
// modifications x' of an input x_t with x' ∈ C_t(x_t) and M_t(x') > δ_t.
//
// It adapts the constraints-based explanation algorithm of Deutch & Frost
// (ICDE 2019) as described in the paper's Section II-A: an iterative search
// with model-dependent move heuristics (split-threshold crossings for tree
// ensembles, gradient steps for logistic models, scaled coordinate moves for
// any model), run as a beam search of width k that prunes the least
// promising states, extended with the diverse objectives diff / gap /
// confidence, and concluded by a maximal-marginal-relevance selection of a
// small diverse top-k.
package candgen

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"justintime/internal/constraints"
	"justintime/internal/feature"
	"justintime/internal/mlmodel"
)

// Candidate is one decision-altering candidate with its paper-visible
// properties.
type Candidate struct {
	// X is the modified feature vector x'.
	X []float64
	// Diff is the l2 distance from the temporal input.
	Diff float64
	// Gap is the number of modified attributes.
	Gap int
	// Confidence is the model score M_t(x').
	Confidence float64
	// q caches the scalarized quality at pool-insertion time so ranking,
	// MMR selection and pool upserts never recompute it.
	q float64
}

// Problem describes one candidate-generation task (one time point).
type Problem struct {
	Schema      *feature.Schema
	Model       mlmodel.Model
	Threshold   float64 // δ_t: candidates need Confidence > Threshold
	Input       []float64
	Constraints *constraints.Set // may be nil (unconstrained beyond schema)
	Time        int
}

// Config tunes the search.
type Config struct {
	// K is the number of candidates to return (top-k).
	K int
	// BeamWidth is the number of states kept per iteration; 0 selects
	// max(2*K, 8).
	BeamWidth int
	// MaxIters bounds beam iterations; 0 selects 25.
	MaxIters int
	// Patience is the number of non-improving iterations before the beam
	// stops; 0 selects 3.
	Patience int
	// DiversityPenalty is the MMR trade-off λ in [0, 1): 0 selects
	// greedily by quality alone (the ablation baseline); larger values
	// prefer mutually distant candidates. Default 0.5 when negative.
	DiversityPenalty float64
	// Weights scalarizes the objectives when ranking feasible candidates.
	Weights Weights
	// Seed drives random coordinate moves.
	Seed int64
}

// Weights balances the three optimization objectives of Section II-A. All
// must be non-negative; zeros fall back to defaults (1, 1, 1).
type Weights struct {
	Diff       float64 // prefer small l2 modification
	Gap        float64 // prefer few modified attributes
	Confidence float64 // prefer high model score
}

// DefaultConfig returns the configuration used by the pipeline: top-8
// diverse candidates from a width-16 beam.
func DefaultConfig() Config {
	return Config{K: 8, BeamWidth: 16, MaxIters: 25, Patience: 3, DiversityPenalty: 0.5, Weights: Weights{1, 1, 1}}
}

func (c Config) withDefaults() Config {
	if c.BeamWidth == 0 {
		c.BeamWidth = 2 * c.K
		if c.BeamWidth < 8 {
			c.BeamWidth = 8
		}
	}
	if c.MaxIters == 0 {
		c.MaxIters = 25
	}
	if c.Patience == 0 {
		c.Patience = 3
	}
	if c.DiversityPenalty < 0 {
		c.DiversityPenalty = 0.5
	}
	if c.Weights == (Weights{}) {
		c.Weights = Weights{1, 1, 1}
	}
	return c
}

func (c Config) validate() error {
	if c.K < 1 {
		return fmt.Errorf("candgen: K must be >= 1, got %d", c.K)
	}
	if c.BeamWidth < 0 || c.MaxIters < 0 || c.Patience < 0 {
		return fmt.Errorf("candgen: negative search parameter")
	}
	if c.DiversityPenalty >= 1 {
		return fmt.Errorf("candgen: DiversityPenalty must be < 1, got %g", c.DiversityPenalty)
	}
	if c.Weights.Diff < 0 || c.Weights.Gap < 0 || c.Weights.Confidence < 0 {
		return fmt.Errorf("candgen: negative objective weight")
	}
	return nil
}

// Stats reports how the search behaved, feeding the convergence experiment
// (the paper: "the algorithm converges after a small number of iterations").
type Stats struct {
	// Iterations is the number of beam iterations executed.
	Iterations int
	// FirstFeasibleIter is the iteration at which the first decision-
	// altering candidate appeared (0 when the axis probes or the
	// unmodified input already alter the decision; -1 if none was found).
	FirstFeasibleIter int
	// Evaluations counts model evaluations.
	Evaluations int
	// Converged is true when the beam stopped by patience rather than by
	// the iteration cap.
	Converged bool
	// PoolSize is the number of distinct feasible candidates discovered.
	PoolSize int
}

// Generate runs the search and returns at most cfg.K diverse decision-
// altering candidates, ordered by scalarized quality (best first).
func Generate(p Problem, cfg Config) ([]Candidate, Stats, error) {
	return GenerateContext(context.Background(), p, cfg)
}

// GenerateContext is Generate with cooperative cancellation: the search
// checks ctx between axis probes, beam iterations and shrink rounds, and
// returns an error wrapping ctx.Err() as soon as it observes cancellation,
// so a disconnected client stops burning CPU within one iteration.
func GenerateContext(ctx context.Context, p Problem, cfg Config) ([]Candidate, Stats, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, Stats{}, err
	}
	if p.Schema == nil || p.Model == nil {
		return nil, Stats{}, fmt.Errorf("candgen: Problem needs Schema and Model")
	}
	if err := p.Schema.Validate(p.Input); err != nil {
		return nil, Stats{}, fmt.Errorf("candgen: input: %w", err)
	}
	if p.Constraints == nil {
		p.Constraints = constraints.NewSet()
	}
	// Box matches bare attribute references, so it reads the set before
	// Bind turns them into vector indexes for the per-point checks.
	box := p.Constraints.Box(p.Schema, p.Input, p.Time)
	p.Constraints = p.Constraints.Bind(p.Schema)

	d := p.Schema.Dim()
	s := &search{
		ctx:     ctx,
		p:       p,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		box:     box,
		scales:  p.Schema.Scales(),
		mutable: p.Schema.MutableIndices(),
		pool:    pool{keys: newKeyTable(keyBytes * d), dim: d},
		stats:   Stats{FirstFeasibleIter: -1},
		cctx:    constraints.Context{Schema: p.Schema, Original: p.Input, Time: p.Time},
		row:     make([]float64, d),
	}
	// The ensemble's split-threshold map is invariant for the whole search:
	// aggregate it once here instead of on every beam expansion.
	if tm, ok := p.Model.(thresholder); ok {
		s.thresholds = tm.Thresholds()
	}
	s.keyScales = make([]float64, len(s.scales))
	for i, sc := range s.scales {
		if sc <= 0 {
			sc = 1
		}
		s.keyScales[i] = sc
	}

	// Phase 0: the unmodified input (diff = 0, the Q1 "no modification"
	// candidate) and per-axis probes (gap = 1 candidates).
	s.consider(p.Input, 0)
	if err := s.axisProbes(); err != nil {
		return nil, s.stats, err
	}

	// Phase 1: beam search with model-dependent moves.
	if err := s.beam(); err != nil {
		return nil, s.stats, err
	}

	// Phase 2: shrink feasible candidates toward the input to reduce diff.
	if err := s.shrinkPool(); err != nil {
		return nil, s.stats, err
	}

	// Phase 3: diverse top-k selection.
	out := s.selectTopK()
	s.stats.PoolSize = s.pool.len()
	return out, s.stats, nil
}

// thresholder is implemented by tree-ensemble models whose split thresholds
// define the model-dependent move set.
type thresholder interface{ Thresholds() map[int][]float64 }

// poolEntry is one distinct feasible candidate's objectives and quality;
// its vector is stored in the pool's arena.
type poolEntry struct {
	diff, conf, q float64
	gap           int
}

// pool holds the distinct feasible candidates in insertion order. Slot i is
// keys' i-th key, the i-th entry and the i-th vector; entries and vectors
// are carved from chunks of keyChunk, so inserting copies nothing already
// stored and neither holds a pointer.
type pool struct {
	keys    *keyTable
	dim     int
	entries [][]poolEntry
	vecs    [][]float64
}

func (p *pool) len() int { return p.keys.len() }

func (p *pool) entry(slot int32) *poolEntry { return &p.entries[slot/keyChunk][slot%keyChunk] }

func (p *pool) vec(slot int32) []float64 {
	off := int(slot%keyChunk) * p.dim
	return p.vecs[slot/keyChunk][off : off+p.dim : off+p.dim]
}

// set stores e and a copy of x in slot, which is either taken or the first
// free one.
func (p *pool) set(slot int32, e poolEntry, x []float64) {
	if int(slot) == len(p.entries)*keyChunk {
		p.entries = append(p.entries, make([]poolEntry, keyChunk))
		p.vecs = append(p.vecs, make([]float64, keyChunk*p.dim))
	}
	*p.entry(slot) = e
	copy(p.vec(slot), x)
}

// keyBytes is the width of one coordinate in a dedup key.
const keyBytes = 8

type search struct {
	ctx     context.Context
	p       Problem
	cfg     Config
	rng     *rand.Rand
	box     constraints.Box
	scales  []float64
	mutable []int
	pool    pool
	stats   Stats
	// thresholds is the model's per-feature split thresholds, aggregated
	// once per search (nil for models without a tree ensemble).
	thresholds map[int][]float64
	// keyScales is scales with non-positive entries replaced by 1, and
	// keyBuf the scratch buffer, both for the dedup key hot path.
	keyScales []float64
	keyBuf    []byte
	// cctx is the constraint-evaluation context, reused for every point.
	cctx constraints.Context
	// row is consider's scratch vector.
	row []float64
}

// ctxErr translates a cancelled context into the search's error, checked at
// every phase boundary and loop iteration (cooperative cancellation).
func (s *search) ctxErr() error {
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("candgen: search cancelled: %w", err)
	}
	return nil
}

// consider evaluates x fully; when it is a decision-altering candidate it is
// recorded in the pool. Returns the model score either way.
func (s *search) consider(x []float64, iter int) (float64, bool) {
	x = s.p.Schema.ClampInto(s.row, x)
	s.stats.Evaluations++
	conf := s.p.Model.Predict(x)
	return conf, s.considerScored(x, conf, iter)
}

// predictBatch scores a whole move set with a single model call. Rows must
// already be schema-clamped.
func (s *search) predictBatch(X [][]float64) []float64 {
	s.stats.Evaluations += len(X)
	return mlmodel.PredictBatch(s.p.Model, X)
}

// considerScored records x in the pool when it is a decision-altering
// candidate, given its already-computed model score. x must already be
// schema-clamped; it may be a scratch row, because the pool keeps a copy.
// A candidate that beats the entry under its key overwrites it in place.
func (s *search) considerScored(x []float64, conf float64, iter int) bool {
	if conf <= s.p.Threshold {
		return false
	}
	s.cctx.Candidate, s.cctx.Confidence = x, conf
	ok, err := s.p.Constraints.Eval(&s.cctx)
	if err != nil || !ok {
		return false
	}
	gap := feature.Gap(x, s.p.Input)
	q := s.quality(x, gap, conf)
	if slot, added := s.pool.keys.insert(s.key(x)); added || q > s.pool.entry(slot).q {
		s.pool.set(slot, poolEntry{diff: feature.Diff(x, s.p.Input), conf: conf, q: q, gap: gap}, x)
	}
	if s.stats.FirstFeasibleIter == -1 {
		s.stats.FirstFeasibleIter = iter
	}
	return true
}

// key buckets candidates by rounding each coordinate to 1/1000 of its range,
// deduplicating near-identical pool entries. The key is a fixed-width
// little-endian encoding of the rounded coordinates, built in a reused
// scratch buffer that stays valid until the next call: this runs once per
// proposed move, so it must not allocate. Shrink order and quality ties
// compare keys byte by byte, so the encoding must not change.
func (s *search) key(x []float64) []byte {
	buf := s.keyBuf[:0]
	for i, v := range x {
		q := uint64(int64(math.Round(v / s.keyScales[i] * 1000)))
		buf = append(buf,
			byte(q), byte(q>>8), byte(q>>16), byte(q>>24),
			byte(q>>32), byte(q>>40), byte(q>>48), byte(q>>56))
	}
	s.keyBuf = buf
	return buf
}

// quality is the scalarized objective for ranking a feasible candidate x
// with gap modified attributes and model score conf: higher is better.
func (s *search) quality(x []float64, gap int, conf float64) float64 {
	w := s.cfg.Weights
	normDiff := feature.ScaledDiff(x, s.p.Input, s.scales) / math.Sqrt(float64(len(x)))
	normGap := float64(gap) / float64(len(x))
	return w.Confidence*conf - w.Diff*normDiff - w.Gap*normGap
}

// axisProbes binary-searches each mutable feature axis for the smallest
// single-feature modification that alters the decision, in both directions.
func (s *search) axisProbes() error {
	probe := make([]float64, len(s.p.Input))
	for _, i := range s.mutable {
		if err := s.ctxErr(); err != nil {
			return err
		}
		for _, dir := range [...]float64{1, -1} {
			lo := s.p.Input[i]
			hi := lo
			if dir > 0 {
				hi = s.box.Hi[i]
			} else {
				hi = s.box.Lo[i]
			}
			if hi == lo || math.IsInf(hi, 0) {
				continue
			}
			// Is the far end feasible at all?
			copy(probe, s.p.Input)
			probe[i] = hi
			if _, ok := s.consider(probe, 0); !ok {
				continue
			}
			// Binary search for the closest feasible point on the axis.
			a, b := lo, hi
			for step := 0; step < 24; step++ {
				mid := (a + b) / 2
				probe[i] = mid
				if _, ok := s.consider(probe, 0); ok {
					b = mid
				} else {
					a = mid
				}
			}
		}
	}
	return nil
}

// beamState is one state of the beam with its cached score.
type beamState struct {
	x    []float64
	conf float64
}

func (s *search) beam() error {
	d := s.p.Schema.Dim()
	start := s.p.Schema.Clamp(s.p.Input)
	beam := []beamState{{x: start, conf: s.p.Model.Predict(start)}}
	s.stats.Evaluations++
	seen := newKeyTable(keyBytes * d)
	seen.insert(s.key(start))

	// Moves are flat rows of d values. The beam's states point into the
	// previous iteration's move arena while this iteration's moves are
	// written to the other one; the two swap after every iteration.
	var moves, prevMoves, scoredBuf []float64
	var scored [][]float64
	var next []beamState
	var ranks []float64
	var order []int
	bestObjective := math.Inf(-1)
	sincImprove := 0
	for iter := 1; iter <= s.cfg.MaxIters; iter++ {
		if err := s.ctxErr(); err != nil {
			return err
		}
		s.stats.Iterations = iter
		// Collect the whole iteration's move set first, then score it with
		// one batch model call — for tree ensembles this streams every move
		// through the flattened node arrays instead of paying a full
		// ensemble walk per move. Beam states and dedup keys use the
		// box-clamped vector; scoring and the pool use a re-schema-clamped
		// copy, because box bounds from constraint constants can land on
		// fractional values of discrete fields (or ±Inf for contradictory
		// constraints) that only Schema.Clamp repairs.
		moves = moves[:0]
		for _, st := range beam {
			moves = s.proposeMoves(moves, st.x)
		}
		kept := 0
		for off := 0; off < len(moves); off += d {
			mv := moves[off : off+d]
			s.box.ClampInto(mv, s.p.Schema.ClampInto(mv, mv))
			if _, added := seen.insert(s.key(mv)); !added {
				continue
			}
			copy(moves[kept*d:], mv)
			kept++
		}
		moves = moves[:kept*d]
		if kept == 0 {
			s.stats.Converged = true
			return nil
		}
		scoredBuf = append(scoredBuf[:0], moves...)
		scored = scored[:0]
		for off := 0; off < len(scoredBuf); off += d {
			row := scoredBuf[off : off+d]
			scored = append(scored, s.p.Schema.ClampInto(row, row))
		}
		confs := s.predictBatch(scored)
		next = next[:0]
		for i, row := range scored {
			s.considerScored(row, confs[i], iter)
			next = append(next, beamState{x: moves[i*d : (i+1)*d : (i+1)*d], conf: confs[i]})
		}
		// Rank each state once (the comparator would otherwise recompute
		// quality O(n log n) times): infeasible states climb by confidence;
		// feasible states by quality plus a constant to dominate them.
		ranks = ranks[:0]
		order = order[:0]
		for i, st := range next {
			ranks = append(ranks, s.rank(st))
			order = append(order, i)
		}
		sort.Slice(order, func(a, b int) bool { return ranks[order[a]] > ranks[order[b]] })
		if len(order) > s.cfg.BeamWidth {
			order = order[:s.cfg.BeamWidth]
		}
		beam = beam[:0]
		for _, i := range order {
			beam = append(beam, next[i])
		}
		moves, prevMoves = prevMoves, moves
		if top := ranks[order[0]]; top > bestObjective+1e-9 {
			bestObjective = top
			sincImprove = 0
		} else {
			sincImprove++
			if sincImprove >= s.cfg.Patience {
				s.stats.Converged = true
				return nil
			}
		}
	}
	return nil
}

// rank orders beam states: infeasible states by raw confidence, feasible
// states by scalarized quality shifted above any confidence.
func (s *search) rank(st beamState) float64 {
	if st.conf > s.p.Threshold {
		return 10 + s.quality(st.x, feature.Gap(st.x, s.p.Input), st.conf)
	}
	return st.conf
}

// Step sizes, as fractions of the feature range, of the gradient and the
// coordinate moves.
var (
	gradientFracs   = [...]float64{0.02, 0.08, 0.2}
	coordinateFracs = [...]float64{0.02, 0.1, 0.3}
)

// pushMove appends a copy of x to the flat move buffer dst and returns the
// grown buffer and the new row; the row is valid until the next append.
func pushMove(dst, x []float64) ([]float64, []float64) {
	n := len(dst)
	dst = append(dst, x...)
	return dst, dst[n:]
}

// proposeMoves appends neighbor states of x to dst, generated with the
// model-dependent heuristics of Section II-A.
func (s *search) proposeMoves(dst, x []float64) []float64 {
	var mv []float64

	// Tree-ensemble heuristic: cross the nearest split thresholds
	// (aggregated once per search in Generate).
	if s.thresholds != nil {
		for _, i := range s.mutable {
			dst = s.thresholdMoves(dst, x, i, s.thresholds[i])
		}
	}

	// Logistic heuristic: step along the probability gradient.
	type gradient interface{ Gradient(x []float64) []float64 }
	if gm, ok := s.p.Model.(gradient); ok {
		g := gm.Gradient(x)
		// Normalize per-feature by range so one step moves each
		// feature a comparable fraction of its domain.
		norm := 0.0
		for _, i := range s.mutable {
			norm += math.Abs(g[i]) * s.scales[i]
		}
		// A vanishing gradient proposes nothing (written so that a NaN
		// norm still proposes).
		if !(norm < 1e-18) {
			for _, frac := range gradientFracs {
				dst, mv = pushMove(dst, x)
				for _, i := range s.mutable {
					mv[i] += frac * g[i] * s.scales[i] * s.scales[i] / norm
				}
			}
		}
	}

	// Generic coordinate moves: ± a fraction of the feature range.
	for _, i := range s.mutable {
		for _, frac := range coordinateFracs {
			step := frac * s.scales[i]
			if step <= 0 {
				continue
			}
			dst, mv = pushMove(dst, x)
			mv[i] += step
			dst, mv = pushMove(dst, x)
			mv[i] -= step
		}
	}

	// A couple of random two-feature moves to escape plateaus.
	if len(s.mutable) >= 2 {
		for k := 0; k < 2; k++ {
			dst, mv = pushMove(dst, x)
			i := s.mutable[s.rng.Intn(len(s.mutable))]
			j := s.mutable[s.rng.Intn(len(s.mutable))]
			mv[i] += (s.rng.Float64() - 0.5) * 0.2 * s.scales[i]
			mv[j] += (s.rng.Float64() - 0.5) * 0.2 * s.scales[j]
		}
	}
	return dst
}

// thresholdMoves appends to dst moves crossing the nearest ensemble split
// thresholds on feature i, in both directions.
func (s *search) thresholdMoves(dst, x []float64, i int, thrs []float64) []float64 {
	if len(thrs) == 0 {
		return dst
	}
	eps := s.scales[i] * 1e-3
	if eps <= 0 {
		eps = 1e-6
	}
	var mv []float64
	// The nearest 2 thresholds above and below the current value.
	above, below := 0, 0
	j := sort.SearchFloat64s(thrs, x[i])
	for u := j; u < len(thrs) && above < 2; u++ {
		if thrs[u] > x[i] {
			dst, mv = pushMove(dst, x)
			mv[i] = thrs[u] + eps
			above++
		}
	}
	for d := j - 1; d >= 0 && below < 2; d-- {
		if thrs[d] < x[i] {
			dst, mv = pushMove(dst, x)
			mv[i] = thrs[d] - eps
			below++
		}
	}
	return dst
}

// shrinkPool walks each feasible candidate back toward the input by binary
// search along the connecting segment, keeping feasibility, to reduce diff.
// The searches run in lockstep so each of the 12 bisection rounds scores
// every candidate's midpoint with one batch model call.
func (s *search) shrinkPool() error {
	var slots []int32
	for i := int32(0); i < int32(s.pool.len()); i++ {
		if s.pool.entry(i).diff > 0 {
			slots = append(slots, i)
		}
	}
	if len(slots) == 0 {
		return nil
	}
	// Deterministic iteration order.
	keys := s.pool.keys
	sort.Slice(slots, func(a, b int) bool { return bytes.Compare(keys.key(slots[a]), keys.key(slots[b])) < 0 })
	// The shrink set is fixed before any round runs, and its vectors are
	// copied here: the rounds may overwrite an entry in place.
	d := s.p.Schema.Dim()
	originals := make([]float64, len(slots)*d)
	for j, slot := range slots {
		copy(originals[j*d:], s.pool.vec(slot))
	}
	lo := make([]float64, len(slots)) // fraction of the way input->candidate
	hi := make([]float64, len(slots))
	for i := range hi {
		hi[i] = 1
	}
	// Midpoints are drawn from one arena reused by every round; the pool
	// copies those it keeps.
	arena := make([]float64, len(slots)*d)
	rows := make([][]float64, len(slots))
	for j := range rows {
		rows[j] = arena[j*d : (j+1)*d : (j+1)*d]
	}
	for step := 0; step < 12; step++ {
		if err := s.ctxErr(); err != nil {
			return err
		}
		for j, row := range rows {
			mid := (lo[j] + hi[j]) / 2
			x := originals[j*d : (j+1)*d]
			for i := range row {
				row[i] = s.p.Input[i] + mid*(x[i]-s.p.Input[i])
			}
			s.p.Schema.ClampInto(row, row)
		}
		confs := s.predictBatch(rows)
		for j := range rows {
			if s.considerScored(rows[j], confs[j], s.stats.Iterations) {
				hi[j] = (lo[j] + hi[j]) / 2
			} else {
				lo[j] = (lo[j] + hi[j]) / 2
			}
		}
	}
	return nil
}

// ranksBefore reports whether pool entry a ranks ahead of entry b: higher
// quality first, ties broken by ascending key.
func (s *search) ranksBefore(a, b int32) bool {
	if qa, qb := s.pool.entry(a).q, s.pool.entry(b).q; qa != qb {
		return qa > qb
	}
	return bytes.Compare(s.pool.keys.key(a), s.pool.keys.key(b)) < 0
}

// selectTopK picks K pool candidates by maximal marginal relevance:
// quality minus λ times similarity to the already-selected set. Each round
// takes an argmax over the unpicked entries with ties broken by
// ranksBefore, so it picks exactly what a scan of the rank-sorted pool
// would, without sorting the pool.
func (s *search) selectTopK() []Candidate {
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
	picked := make([]bool, n)
	// maxSim[i] tracks each unpicked candidate's similarity to the closest
	// already-selected one; it is updated incrementally as candidates are
	// selected, so each MMR round computes one new similarity per candidate
	// instead of rescanning the whole selected set.
	var maxSim []float64
	if lambda != 0 {
		maxSim = make([]float64, n)
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
