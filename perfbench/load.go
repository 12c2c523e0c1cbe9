package main

import (
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// Request classes of a visit.
const (
	opCreate = iota
	opInputs
	opAsk
	opPlan
	opSQL
	nOps
)

var opNames = [nOps]string{"create", "inputs", "ask", "plan", "sql"}

// tally is one client's record of a measured phase.
type tally struct {
	lat    [nOps][]time.Duration
	visits []time.Duration
	// resumes holds the first request of each visit that rehydrated its
	// session from disk.
	resumes   []time.Duration
	requests  [nOps]int
	failed    [nOps]int
	firstFail string
}

func newTally() *tally { return &tally{} }

func (t *tally) fail(op int, msg string) {
	t.failed[op]++
	if t.firstFail == "" {
		t.firstFail = msg
	}
}

// merge folds the clients' tallies into one.
func merge(ts []*tally) *tally {
	out := newTally()
	for _, t := range ts {
		for op := 0; op < nOps; op++ {
			out.lat[op] = append(out.lat[op], t.lat[op]...)
			out.requests[op] += t.requests[op]
			out.failed[op] += t.failed[op]
		}
		out.visits = append(out.visits, t.visits...)
		out.resumes = append(out.resumes, t.resumes...)
		if out.firstFail == "" {
			out.firstFail = t.firstFail
		}
	}
	return out
}

func (t *tally) attempted() (n int) {
	for _, r := range t.requests {
		n += r
	}
	return n
}

func (t *tally) failures() (n int) {
	for _, f := range t.failed {
		n += f
	}
	return n
}

// loadgen runs visits against one server. Visit v goes to profile
// in.order[v mod len]; a shared counter hands visits out, so the set of
// visits made is the same whichever client makes them.
type loadgen struct {
	w    workload
	in   *inputs
	exp  []*expected
	srv  http.Handler
	ids  []string
	next atomic.Int64
	// tr, when set, records a span per visit and per request.
	tr *tracer
	// created, when non-nil, keeps the id of the last session created for
	// each profile.
	mu      sync.Mutex
	created map[int]string
}

var (
	askBodies [][]byte
	sqlBodies [][]byte
)

func init() {
	for _, q := range questions {
		b, _ := json.Marshal(struct {
			Kind    string  `json:"kind"`
			Feature string  `json:"feature,omitempty"`
			Alpha   float64 `json:"alpha,omitempty"`
		}{q.Kind.String(), q.Feature, q.Alpha})
		askBodies = append(askBodies, b)
	}
	for _, q := range sqlMenu {
		b, _ := json.Marshal(map[string]string{"query": q.query})
		sqlBodies = append(sqlBodies, b)
	}
}

// expvarInt reads one of the server's process-wide expvar counters.
func expvarInt(name string) int64 {
	return expvar.Get(name).(*expvar.Int).Value()
}

func rehydrations() int64 { return expvarInt("jitd_rehydrations") }

// record adds one request's latency to the tally.
func (t *tally) record(op int, dur time.Duration) {
	t.requests[op]++
	t.lat[op] = append(t.lat[op], dur)
}

// span records one request of visit v under the visit's span.
func (d *loadgen) span(v, parent int64, op int, start time.Time, dur time.Duration) {
	if d.tr != nil {
		d.tr.add(span{Name: "http." + opNames[op], Parent: parent, Req: fmt.Sprint("visit-", v), start: start, dur: dur})
	}
}

// request sends one read and checks its body against the reference.
func (d *loadgen) request(t *tally, v, parent int64, op int, method, path string, body, want []byte) time.Duration {
	start := time.Now()
	code, got, dur := call(d.srv, method, path, body)
	t.record(op, dur)
	d.span(v, parent, op, start, dur)
	switch {
	case code != http.StatusOK:
		t.fail(op, fmt.Sprintf("%s %s: status %d: %s", method, path, code, got))
	case string(got) != string(want):
		t.fail(op, fmt.Sprintf("%s %s: body differs from the library reference:\n got %s\nwant %s", method, path, got, want))
	}
	return dur
}

// visit runs one visit: [create →] inputs → the six asks → plan → one
// expert query.
func (d *loadgen) visit(t *tally, v int64) {
	p := d.in.order[v%int64(len(d.in.order))]
	exp := d.exp[p]
	var vid int64
	if d.tr != nil {
		vid = d.tr.newID()
	}
	start := time.Now()
	var id string
	if d.w.createPerVisit {
		var err error
		var dur time.Duration
		id, dur, err = createSession(d.srv, d.in, d.exp, p)
		t.record(opCreate, dur)
		d.span(v, vid, opCreate, start, dur)
		if err != nil {
			t.fail(opCreate, err.Error())
			return
		}
		if d.created != nil {
			d.mu.Lock()
			d.created[p] = id
			d.mu.Unlock()
		}
	} else {
		id = d.ids[p]
	}
	base := "/api/sessions/" + id
	reh := rehydrations()
	first := d.request(t, v, vid, opInputs, "GET", base+"/inputs", nil, exp.inputs)
	if d.w.clients == 1 && rehydrations() != reh {
		t.resumes = append(t.resumes, first)
	}
	for k := range questions {
		d.request(t, v, vid, opAsk, "POST", base+"/ask", askBodies[k], exp.asks[k])
	}
	d.request(t, v, vid, opPlan, "GET", base+"/plan", nil, exp.plan)
	q := int(v % int64(len(sqlMenu)))
	d.request(t, v, vid, opSQL, "POST", base+"/sql", sqlBodies[q], exp.sql[q])
	dur := time.Since(start)
	t.visits = append(t.visits, dur)
	if d.tr != nil {
		d.tr.add(span{ID: vid, Name: "visit", Req: fmt.Sprint("visit-", v), start: start, dur: dur})
	}
}

// run drives d.w.clients closed-loop clients until the deadline; a visit
// under way at the deadline completes. It returns the tally and the wall
// time from start to the last completion.
func (d *loadgen) run(dur time.Duration) (*tally, time.Duration) {
	ts := make([]*tally, d.w.clients)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for c := range ts {
		ts[c] = newTally()
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				d.visit(t, d.next.Add(1)-1)
			}
		}(ts[c])
	}
	wg.Wait()
	return merge(ts), time.Since(start)
}

// runVisits makes exactly n visits, split over the given number of
// clients, and returns the tally.
func (d *loadgen) runVisits(n int64, clients int) *tally {
	ts := make([]*tally, clients)
	stop := d.next.Load() + n
	var wg sync.WaitGroup
	for c := range ts {
		ts[c] = newTally()
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for {
				v := d.next.Add(1) - 1
				if v >= stop {
					return
				}
				d.visit(t, v)
			}
		}(ts[c])
	}
	wg.Wait()
	// Leave the counter at stop so a later phase continues the order.
	d.next.Store(stop)
	return merge(ts)
}
