package obs

import (
	"bytes"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket latency histogram with lock-free recording.
// Bounds are bucket upper bounds in microseconds, ascending; one more bucket
// past the last bound counts everything slower (+Inf).
type Histogram struct {
	boundsUs []int64
	counts   []atomic.Int64 // one per bound, plus +Inf
	sumUs    atomic.Int64
}

// NewHistogram builds an empty histogram over boundsUs (not copied; the
// caller keeps it unchanged).
func NewHistogram(boundsUs []int64) *Histogram {
	return &Histogram{boundsUs: boundsUs, counts: make([]atomic.Int64, len(boundsUs)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for i < len(h.boundsUs) && us > h.boundsUs[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumUs.Add(us)
}

// Cumulative returns the cumulative bucket counts in bound order with the
// +Inf total last, plus the observation sum in microseconds. The total is
// derived from the same bucket loads, so _count equals the +Inf bucket even
// when a scrape races an Observe (a separate total counter could read one
// sample ahead of or behind the buckets).
func (h *Histogram) Cumulative() (counts []int64, sumUs int64) {
	counts = make([]int64, len(h.counts))
	cum := int64(0)
	for i := range h.counts {
		cum += h.counts[i].Load()
		counts[i] = cum
	}
	return counts, h.sumUs.Load()
}

// PromWriter renders metric families in the Prometheus text exposition
// format (version 0.0.4), hand-rolled: the repo takes no dependency on a
// client library. Every sample of a family must follow its Header.
type PromWriter struct {
	b bytes.Buffer
}

// Header emits one family's HELP and TYPE lines.
func (w *PromWriter) Header(name, typ, help string) {
	fmt.Fprintf(&w.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one series line. labels is a pre-rendered `k="v"` list
// without braces (see Label), or empty.
func (w *PromWriter) Sample(name, labels string, v int64) {
	if labels == "" {
		fmt.Fprintf(&w.b, "%s %d\n", name, v)
	} else {
		fmt.Fprintf(&w.b, "%s{%s} %d\n", name, labels, v)
	}
}

// Counter emits an unlabelled counter family.
func (w *PromWriter) Counter(name, help string, v int64) {
	w.Header(name, "counter", help)
	w.Sample(name, "", v)
}

// Gauge emits an unlabelled gauge family.
func (w *PromWriter) Gauge(name, help string, v int64) {
	w.Header(name, "gauge", help)
	w.Sample(name, "", v)
}

// LabeledCounters emits one counter family with one series per map key,
// keys sorted for a stable exposition.
func (w *PromWriter) LabeledCounters(name, help, label string, vals map[string]uint64) {
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.Header(name, "counter", help)
	for _, k := range keys {
		fmt.Fprintf(&w.b, "%s{%s} %d\n", name, Label(label, k), vals[k])
	}
}

// HistSeries emits one histogram series (one label set) of a family whose
// Header was written with type "histogram": cumulative _bucket lines with
// le in seconds, then _sum and _count.
func (w *PromWriter) HistSeries(name, labels string, h *Histogram) {
	counts, sumUs := h.Cumulative()
	sep := ""
	if labels != "" {
		sep = ","
	}
	for i, bound := range h.boundsUs {
		le := strconv.FormatFloat(float64(bound)/1e6, 'g', -1, 64)
		fmt.Fprintf(&w.b, "%s_bucket{%s%sle=%q} %d\n", name, labels, sep, le, counts[i])
	}
	total := counts[len(h.boundsUs)]
	fmt.Fprintf(&w.b, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, total)
	sum := strconv.FormatFloat(float64(sumUs)/1e6, 'g', -1, 64)
	if labels == "" {
		fmt.Fprintf(&w.b, "%s_sum %s\n%s_count %d\n", name, sum, name, total)
	} else {
		fmt.Fprintf(&w.b, "%s_sum{%s} %s\n%s_count{%s} %d\n", name, labels, sum, name, labels, total)
	}
}

// ServeHTTP writes the rendered families as a /metrics response.
func (w *PromWriter) ServeHTTP(rw http.ResponseWriter, _ *http.Request) {
	rw.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_, _ = rw.Write(w.b.Bytes())
}

// Label renders one `key="value"` label pair.
func Label(key, value string) string { return key + "=" + strconv.Quote(value) }

// Bool is a gauge value for a flag: 1 for true, 0 for false.
func Bool(v bool) int64 {
	if v {
		return 1
	}
	return 0
}
