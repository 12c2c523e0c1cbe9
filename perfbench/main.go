// Command perfbench measures the JustInTime service along the applicant
// journey: it drives server.Server.ServeHTTP in-process from closed-loop
// clients, checks every response against a reference computed through the
// library, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer metrics of a separate traced run) as one JSON line.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload journey --seed 1 --seconds 20 --trace 0
//
// See perfbench/README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// report collects a run's printed metrics and the details written beside
// them in the results file.
type report struct {
	result
	Details map[string]interface{} `json:"details"`
}

func newReport() *report {
	return &report{
		result:  result{Correct: true, Metrics: map[string]metric{}},
		Details: map[string]interface{}{},
	}
}

func (r *report) set(name, unit string, v float64) { r.Metrics[name] = metric{v, unit} }

// fail marks the run incorrect and says why on stderr.
func (r *report) fail(format string, args ...interface{}) {
	r.Correct = false
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
	if _, ok := r.Details["first_check_failure"]; !ok {
		r.Details["first_check_failure"] = msg
	}
}

func main() {
	name := flag.String("workload", "journey", "workload: journey or cold-reads")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be at least 1")
	}
	in, err := makeInputs(w, seed)
	if err != nil {
		return err
	}
	measure := time.Duration(seconds) * time.Second
	var rep *report
	switch trace {
	case 0:
		rep, err = runPlain(w, in, seed, measure)
	case 1:
		rep, err = runTraced(w, in, seed, measure)
	default:
		return fmt.Errorf("--trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	rep.Details["workload"] = w.name
	rep.Details["seed"] = seed
	rep.Details["seconds"] = seconds
	if err := writeResults(rep, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, trace)); err != nil {
		return err
	}
	out, err := json.Marshal(rep.result)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// writeResults keeps the full report, details included, under workDir.
func writeResults(rep *report, file string) error {
	dir := filepath.Join(workDir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}

// gaugeShare is the share of the measured phase the host gauge takes: it
// is read before the first slice and after every slice.
const gaugeShare = 0.2

// warmupVisits is the fixed warm-up before every measured phase: every
// profile visited twice. It is not timed; it fills the statement and plan
// caches, and the heap is measured right after it, in a state that does not
// depend on how fast the host ran.
func warmupVisits(w workload) int64 { return int64(2 * w.profiles) }

// runPlain is the untraced run: set-up repeated setupReps times, a warm-up,
// then the measured closed loop.
func runPlain(w workload, in *inputs, seed int64, measure time.Duration) (*report, error) {
	rep := newReport()
	exp, _, err := references(w, in)
	if err != nil {
		return nil, err
	}
	var rawSetups []float64
	var e *env
	for r := 0; r < w.setupReps; r++ {
		env, d, err := setUp(w, in, exp, runDir(w, seed, fmt.Sprint("rep", r)), systemHooks{}, nil, 0)
		if err != nil {
			return nil, err
		}
		rawSetups = append(rawSetups, d.Seconds())
		if r < w.setupReps-1 {
			env.close()
		} else {
			e = env
		}
	}
	defer e.close()

	drv := &loadgen{w: w, in: in, exp: exp, srv: e.srv, ids: e.ids}
	if t := drv.runVisits(warmupVisits(w), w.clients); t.failures() > 0 {
		rep.fail("warm-up: %d failed requests; first: %s", t.failures(), t.firstFail)
	}
	// Live heap per resident session after the warm-up. Measured at the end
	// instead, it would grow with the number of requests served (each expert
	// query adds a plan-cache entry to its session until the cache's cap),
	// and so with the host's speed.
	live := sessionsLive()
	if live == 0 {
		return nil, fmt.Errorf("no session resident after the warm-up")
	}
	rep.set("heap_kb_per_session", "KiB", (float64(liveHeap())-float64(e.heapBase))/1024/float64(live))
	// A forced collection precedes every gauge reading, so the gauge never
	// shares the CPU with a collection the program started.
	g := newHostGauge(w.clients)
	gaugeFor := time.Duration(float64(w.slice) * gaugeShare / (1 - gaugeShare))
	read := func() gaugeReading {
		runtime.GC()
		return g.read(gaugeFor)
	}
	h0, la0 := readHost(), loadavg()
	t, sl, elapsed := measureSliced(drv, read, w.slice, measure)
	h1, la1 := readHost(), loadavg()

	rep.Attempted = t.attempted()
	rep.Failed = t.failures()
	if rep.Failed > 0 {
		rep.fail("%d failed requests; first: %s", rep.Failed, t.firstFail)
	}
	if rep.Attempted == 0 {
		return nil, fmt.Errorf("no request completed in %v", measure)
	}
	// Each metric is the median over slices of the slice's value at the
	// gauge's nominal speed; the raw medians are kept as details.
	raw := map[string]float64{}
	put := func(name, unit string, scale func(slice) float64, value func(slice) (float64, bool)) {
		var norm, plain []float64
		for _, s := range sl {
			if v, ok := value(s); ok {
				norm = append(norm, v*scale(s))
				plain = append(plain, v)
			}
		}
		rep.set(name, unit, median(norm))
		raw[name] = median(plain)
	}
	faster := func(s slice) float64 { return 1 / atNominal(s.speed) }
	slower := func(s slice) float64 { return atNominal(s.speed) }
	// Short requests are rarely interrupted by a descheduling of the vCPU,
	// so their medians, like CPU time, are scaled by how fast the vCPUs run
	// when they run.
	cpuSlower := func(s slice) float64 { return atNominal(s.cpuSpeed) }
	p50 := func(lat func(*tally) []time.Duration, unit func(time.Duration) float64) func(slice) (float64, bool) {
		return func(s slice) (float64, bool) {
			l := lat(s.t)
			return unit(percentile(sorted(l), 50)), len(l) > 0
		}
	}
	put("ops_per_s", "1/s", faster, func(s slice) (float64, bool) {
		return float64(s.t.attempted()) / s.elapsed.Seconds(), s.t.attempted() > 0
	})
	put("cpu_ms_per_op", "ms", cpuSlower, func(s slice) (float64, bool) {
		return ms(s.cpu) / float64(s.t.attempted()), s.t.attempted() > 0
	})
	put("visit_p50_ms", "ms", slower, p50(func(t *tally) []time.Duration { return t.visits }, ms))
	put("ask_p50_us", "us", cpuSlower, p50(func(t *tally) []time.Duration { return t.lat[opAsk] }, us))
	put("sql_p50_us", "us", cpuSlower, p50(func(t *tally) []time.Duration { return t.lat[opSQL] }, us))
	put("plan_p50_us", "us", cpuSlower, p50(func(t *tally) []time.Duration { return t.lat[opPlan] }, us))

	// Workload-specific latencies and the tails are kept as details: the
	// end-to-end metrics must exist on every workload, and the tails do not
	// repeat within the bounds from run to run on a small shared VM.
	rep.Details["latency"] = latencyDetails(t)
	disk, err := dirBytes(e.dir)
	if err != nil {
		return nil, err
	}
	onDisk, err := sessionsOnDisk(e.dir)
	if err != nil {
		return nil, err
	}
	if onDisk == 0 {
		return nil, fmt.Errorf("no session on disk after the run")
	}
	rep.set("disk_kb_per_session", "KiB", float64(disk)/1024/float64(onDisk))

	var speeds, cpuSpeeds, rates []float64
	for _, s := range sl {
		speeds, cpuSpeeds = append(speeds, s.speed), append(cpuSpeeds, s.cpuSpeed)
		rates = append(rates, float64(s.t.attempted())/s.elapsed.Seconds())
	}
	// Set-up is scaled by the run's median gauge speed: a gauge reading as
	// short as a set-up spread it more than the host did.
	rep.set("setup_s", "s", median(rawSetups)*atNominal(median(speeds)))
	raw["setup_s"] = median(rawSetups)
	rep.Details["setup_s_each"] = rawSetups
	rep.Details["raw"] = raw
	rep.Details["slice_gauge_speed"] = speeds
	rep.Details["slice_gauge_cpu_speed"] = cpuSpeeds
	rep.Details["slice_ops_per_s"] = rates
	rep.Details["sessions_resident_after_warmup"] = live
	rep.Details["sessions_on_disk"] = onDisk
	rep.Details["elapsed_s"] = elapsed.Seconds()
	rep.Details["sizes"] = sizes(w)
	rep.Details["host.steal_share"] = stealShare(h0, h1)
	rep.Details["host.loadavg"] = (la0 + la1) / 2
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests in %.2fs, gauge speed %.3f, host steal %.3f, loadavg %.2f\n",
		w.name, seed, rep.Attempted, elapsed.Seconds(), median(speeds), stealShare(h0, h1), (la0+la1)/2)
	return rep, nil
}

// latencyDetails summarizes every request class of a tally: sample count,
// median, and the tail with the percentile it was taken at.
func latencyDetails(t *tally) map[string]interface{} {
	out := map[string]interface{}{}
	add := func(name string, ds []time.Duration) {
		s := sorted(ds)
		p, v := tail(s)
		out[name] = map[string]float64{
			"samples": float64(len(s)), "p50_ms": ms(percentile(s, 50)), "tail_percentile": p, "tail_ms": ms(v),
		}
	}
	for op := 0; op < nOps; op++ {
		add(opNames[op], t.lat[op])
	}
	add("visit", t.visits)
	add("resume", t.resumes)
	return out
}

// slice is one slice of a measured phase with the host gauge around it.
type slice struct {
	t *tally
	// elapsed is the slice's wall time; cpu is the process CPU time from
	// its start until its garbage has been collected.
	elapsed, cpu time.Duration
	// speed and cpuSpeed are the mean of the gauge readings before and
	// after the slice.
	speed, cpuSpeed float64
}

// measureSliced runs the measured phase as closed-loop slices of length
// work, with a gauge reading before the first and after each. It returns
// the merged tally, the slices and the phase's wall time.
func measureSliced(drv *loadgen, read func() gaugeReading, work, measure time.Duration) (*tally, []slice, time.Duration) {
	n := int(math.Round(float64(measure) * (1 - gaugeShare) / float64(work)))
	if n < 1 {
		n = 1
	}
	start := time.Now()
	prev := read()
	var sl []slice
	var ts []*tally
	for k := 0; k < n; k++ {
		cpu0 := cpuTime()
		t, el := drv.run(work)
		next := read()
		// The slice's CPU time includes the collection of its garbage,
		// which read forced, and not the gauge.
		cpu := next.cpu0 - cpu0
		sl = append(sl, slice{
			t: t, elapsed: el, cpu: cpu,
			speed:    (prev.speed + next.speed) / 2,
			cpuSpeed: (prev.cpuSpeed + next.cpuSpeed) / 2,
		})
		ts = append(ts, t)
		prev = next
	}
	return merge(ts), sl, time.Since(start)
}

// sizes records the workload's size parameters with every result.
func sizes(w workload) map[string]interface{} {
	return map[string]interface{}{
		"clients": w.clients, "profiles": w.profiles, "session_cap": w.maxSessions,
		"pool_frames": w.poolPages, "hot_sessions": w.hotSessions, "hot_share": w.hotShare,
		"method": w.method, "create_per_visit": w.createPerVisit,
	}
}

// sessionsLive reads the server's resident-session gauge.
func sessionsLive() int64 {
	return expvarInt("jitd_sessions_live")
}
