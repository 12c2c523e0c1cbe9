package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"justintime/internal/core"
	"justintime/internal/dataset"
)

// workload fixes everything about one traffic mix except the seed, which
// only chooses the generated inputs (profiles, constraints, visit order).
type workload struct {
	name string
	// method is the future-model generator: "ki" is jitd's default
	// (logistic models); "edd" would train random forests.
	method string
	// clients is the number of closed-loop clients.
	clients int
	// profiles is the number of distinct seeded profiles: the profile pool
	// cycled by creating visits, or the session working set of cold-reads.
	profiles int
	// createPerVisit makes every visit start with POST /api/sessions;
	// otherwise the sessions are created in set-up and visits only read.
	createPerVisit bool
	// maxSessions is the server's LRU session cap.
	maxSessions int
	// poolPages > 0 puts candidates rows on paged storage behind a buffer
	// pool of this many frames.
	poolPages int
	// hotSessions > 0 makes the visit order skewed: hotShare of the visits
	// go to the first hotSessions sessions, the rest to the others.
	hotSessions int
	hotShare    float64
	// setupReps is how many times set-up runs to report its median.
	setupReps int
	// slice is the length of one slice of the measured phase, between two
	// readings of the host gauge: long enough for about fifty visits.
	slice time.Duration
}

// workloads are the benchmark's traffic mixes. Two more, journey with EDD
// forests and reads of resident sessions, were measured and dropped: on a
// 2-vCPU VM whose speed drifts by up to 40% between runs they doubled the
// chance of a spread beyond its bound and halved the run length the time
// budget allows. Every layer stays measured on one of these two.
var workloads = []workload{
	{name: "journey", method: "ki", clients: 2, profiles: 16, createPerVisit: true, maxSessions: 1 << 16, setupReps: 9, slice: 1600 * time.Millisecond},
	{name: "cold-reads", method: "ki", clients: 1, profiles: 24, maxSessions: 8, poolPages: 4, hotSessions: 4, hotShare: 0.2, setupReps: 5, slice: 400 * time.Millisecond},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// constraintMenu is the fixed menu of user preferences; profile i uses entry
// i mod len.
var constraintMenu = [][]string{
	nil,
	{"income <= old(income) * 1.4"},
	{"debt >= old(debt) * 0.5"},
	{"amount >= old(amount) * 0.8", "income <= old(income) * 1.6"},
}

// sqlMenu is the fixed menu of expert queries; visit v runs entry v mod len.
// Three entries of different cost keep the median inside the middle one.
var sqlMenu = []struct{ name, query string }{
	{"by_time", "SELECT time, COUNT(*) AS n, MIN(diff) AS closest, MAX(p) AS best FROM candidates GROUP BY time ORDER BY time"},
	{"join_inputs", "SELECT c.time, c.diff, c.p, ti.income FROM candidates c INNER JOIN temporal_inputs ti ON ti.time = c.time WHERE c.gap <= 2 ORDER BY c.time, c.diff, c.p LIMIT 20"},
	{"top_conf", "SELECT * FROM candidates WHERE p > 0.6 ORDER BY p DESC, diff LIMIT 10"},
}

// questions is the canned-question mix of every visit, in visit order.
var questions = core.Questions("income", 0.7)

// inputs are the seeded inputs of one run.
type inputs struct {
	profiles    [][]float64
	constraints [][]string
	// order lists the profile (session) index of successive visits; visits
	// cycle through it.
	order []int
}

// makeInputs perturbs the paper's five rejected applicants into w.profiles
// seeded profiles, each checked by the schema, and draws the visit order.
func makeInputs(w workload, seed int64) (*inputs, error) {
	rng := rand.New(rand.NewSource(seed))
	schema := dataset.LoanSchema()
	base := dataset.RejectedProfiles()
	in := &inputs{}
	round := func(v, unit float64) float64 { return math.Round(v/unit) * unit }
	for i := 0; i < w.profiles; i++ {
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
			return nil, fmt.Errorf("profile %d: %w", i, err)
		}
		in.profiles = append(in.profiles, p)
		in.constraints = append(in.constraints, constraintMenu[i%len(constraintMenu)])
	}
	const orderLen = 4096
	in.order = make([]int, orderLen)
	if w.hotSessions > 0 {
		// Skewed: a seeded permutation picks which sessions are hot.
		perm := rng.Perm(w.profiles)
		hot, cold := perm[:w.hotSessions], perm[w.hotSessions:]
		for v := range in.order {
			if rng.Float64() < w.hotShare {
				in.order[v] = hot[rng.Intn(len(hot))]
			} else {
				in.order[v] = cold[rng.Intn(len(cold))]
			}
		}
	} else {
		// Creating visits cycle the pool in order, so every profile is
		// created equally often whatever the run length.
		for v := range in.order {
			in.order[v] = v % w.profiles
		}
	}
	return in, nil
}
