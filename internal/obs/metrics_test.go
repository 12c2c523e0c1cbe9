package obs

import (
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{10, 100})
	for _, us := range []int64{0, 10, 11, 100, 101, 5000} {
		h.Observe(time.Duration(us) * time.Microsecond)
	}
	counts, sumUs := h.Cumulative()
	// A sample equal to a bound lands in that bound's bucket.
	if want := []int64{2, 4, 6}; !equalInts(counts, want) {
		t.Errorf("cumulative = %v, want %v", counts, want)
	}
	if sumUs != 5222 {
		t.Errorf("sum = %d us, want 5222", sumUs)
	}
}

func equalInts(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestPromWriterExposition pins the text format byte for byte: scrapers
// key on these exact series names, and the le labels render the
// microsecond bounds in seconds.
func TestPromWriterExposition(t *testing.T) {
	h := NewHistogram([]int64{50, 2500})
	h.Observe(40 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	var p PromWriter
	p.Counter("c_total", "A counter.", 7)
	p.Gauge("g", "A gauge.", Bool(true))
	p.LabeledCounters("l_total", "Labelled.", "kind", map[string]uint64{"b": 2, "a": 1})
	p.Header("h_seconds", "histogram", "A histogram.")
	p.HistSeries("h_seconds", "", h)
	p.HistSeries("h_seconds", Label("route", `/x"y`), h)

	rec := httptest.NewRecorder()
	p.ServeHTTP(rec, nil)
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; version=0.0.4; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}
	want := `# HELP c_total A counter.
# TYPE c_total counter
c_total 7
# HELP g A gauge.
# TYPE g gauge
g 1
# HELP l_total Labelled.
# TYPE l_total counter
l_total{kind="a"} 1
l_total{kind="b"} 2
# HELP h_seconds A histogram.
# TYPE h_seconds histogram
h_seconds_bucket{le="5e-05"} 1
h_seconds_bucket{le="0.0025"} 1
h_seconds_bucket{le="+Inf"} 2
h_seconds_sum 0.00304
h_seconds_count 2
h_seconds_bucket{route="/x\"y",le="5e-05"} 1
h_seconds_bucket{route="/x\"y",le="0.0025"} 1
h_seconds_bucket{route="/x\"y",le="+Inf"} 2
h_seconds_sum{route="/x\"y"} 0.00304
h_seconds_count{route="/x\"y"} 2
`
	if got := rec.Body.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestHistSeriesShape renders histograms over real bound sets and checks
// the Prometheus histogram contract on every series: le bounds strictly
// increase, bucket counts are cumulative (never decrease), the series ends
// with a +Inf bucket, and _count equals that bucket.
func TestHistSeriesShape(t *testing.T) {
	for _, bounds := range [][]int64{
		{50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000},
		{100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000, 100000, 250000, 1000000, 5000000},
	} {
		h := NewHistogram(bounds)
		for us := int64(1); us < 20_000_000; us = us*3 + 7 {
			h.Observe(time.Duration(us) * time.Microsecond)
		}
		var p PromWriter
		p.Header("x_seconds", "histogram", "x")
		p.HistSeries("x_seconds", "", h)
		p.HistSeries("x_seconds", Label("shard", "s0"), h)
		rec := httptest.NewRecorder()
		p.ServeHTTP(rec, nil)
		checkHistShape(t, rec.Body.String(), len(bounds))
	}
}

// checkHistShape validates every histogram series of one exposition.
func checkHistShape(t *testing.T, page string, nBounds int) {
	t.Helper()
	type series struct {
		prevLe     float64
		prevCount  int64
		buckets    int
		inf, count int64
		hasInf     bool
		hasCount   bool
	}
	all := map[string]*series{}
	get := func(labels string) *series {
		s, ok := all[labels]
		if !ok {
			s = &series{prevLe: -1}
			all[labels] = s
		}
		return s
	}
	for _, line := range strings.Split(page, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, val, _ := strings.Cut(line, " ")
		v, err := strconv.ParseInt(val, 10, 64)
		switch {
		case strings.Contains(name, "_bucket{"):
			if err != nil {
				t.Fatalf("bad bucket value: %s", line)
			}
			labels := name[strings.IndexByte(name, '{')+1 : len(name)-1]
			i := strings.Index(labels, `le="`)
			if i < 0 {
				t.Fatalf("bucket without le: %s", line)
			}
			le := strings.TrimSuffix(labels[i+4:], `"`)
			s := get(strings.TrimSuffix(labels[:i], ","))
			s.buckets++
			if v < s.prevCount {
				t.Errorf("%s: cumulative count decreased", line)
			}
			s.prevCount = v
			if le == "+Inf" {
				s.inf, s.hasInf = v, true
				continue
			}
			f, err := strconv.ParseFloat(le, 64)
			if err != nil || f <= s.prevLe {
				t.Errorf("%s: le not increasing (previous %g)", line, s.prevLe)
			}
			s.prevLe = f
		case strings.Contains(name, "_count"):
			labels := ""
			if i := strings.IndexByte(name, '{'); i >= 0 {
				labels = name[i+1 : len(name)-1]
			}
			s := get(labels)
			s.count, s.hasCount = v, true
		}
	}
	if len(all) != 2 {
		t.Fatalf("want 2 series, got %d:\n%s", len(all), page)
	}
	for labels, s := range all {
		if !s.hasInf || !s.hasCount || s.count != s.inf || s.inf == 0 {
			t.Errorf("series {%s}: +Inf=%d (%v) _count=%d (%v)", labels, s.inf, s.hasInf, s.count, s.hasCount)
		}
		if s.buckets != nBounds+1 {
			t.Errorf("series {%s}: %d buckets, want %d", labels, s.buckets, nBounds+1)
		}
	}
}
