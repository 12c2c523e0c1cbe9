package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"justintime/internal/drift"
	"justintime/internal/fault"
	"justintime/internal/mlmodel"
)

// This file holds the benchmark-owned decorators the traced run installs
// at the program's seams: around every model the future-model generator
// returns, around the generator itself, and around the filesystem the
// server persists through. They only count and time; every call is
// forwarded unchanged.

// modelStats counts the work of every decorated model of one System.
type modelStats struct {
	calls, rows, busyNs atomic.Int64
}

// tracedModel forwards Predict, PredictBatch and Name; tracedThresholds
// adds Thresholds (tree ensembles) and tracedGradient adds Gradient
// (logistic models), so the candidate generator sees exactly the method set
// it would see unwrapped and takes the same path.
type tracedModel struct {
	inner mlmodel.Model
	st    *modelStats
	tr    *tracer
}

func (m *tracedModel) done(start time.Time, rows int) {
	d := time.Since(start)
	m.st.calls.Add(1)
	m.st.rows.Add(int64(rows))
	m.st.busyNs.Add(int64(d))
	if parent := m.tr.parent.Load(); parent != 0 {
		m.tr.add(span{Name: "mlmodel.predict", Parent: parent, start: start, dur: d})
	}
}

func (m *tracedModel) Predict(x []float64) float64 {
	t0 := time.Now()
	p := m.inner.Predict(x)
	m.done(t0, 1)
	return p
}

func (m *tracedModel) PredictBatch(X [][]float64) []float64 {
	t0 := time.Now()
	out := mlmodel.PredictBatch(m.inner, X)
	m.done(t0, len(X))
	return out
}

func (m *tracedModel) Name() string { return m.inner.Name() }

type thresholder interface{ Thresholds() map[int][]float64 }
type gradienter interface{ Gradient(x []float64) []float64 }

type tracedThresholds struct {
	*tracedModel
	th thresholder
}

func (m tracedThresholds) Thresholds() map[int][]float64 { return m.th.Thresholds() }

type tracedGradient struct {
	*tracedModel
	g gradienter
}

// Gradient is model work too: it counts as a call and as busy time, but
// scores no row.
func (m tracedGradient) Gradient(x []float64) []float64 {
	t0 := time.Now()
	g := m.g.Gradient(x)
	m.done(t0, 0)
	return g
}

// wrapModel decorates one generated model. A model with both Thresholds
// and Gradient, which no generator returns, is refused rather than
// silently losing a method.
func wrapModel(inner mlmodel.Model, st *modelStats, tr *tracer) (mlmodel.Model, error) {
	base := &tracedModel{inner: inner, st: st, tr: tr}
	th, hasTh := inner.(thresholder)
	g, hasG := inner.(gradienter)
	switch {
	case hasTh && hasG:
		return nil, fmt.Errorf("model decorator: %s has both Thresholds and Gradient", inner.Name())
	case hasTh:
		return tracedThresholds{base, th}, nil
	case hasG:
		return tracedGradient{base, g}, nil
	default:
		return base, nil
	}
}

// tracedGen times the generator (model training) and decorates every model
// it returns.
type tracedGen struct {
	inner drift.Generator
	st    *modelStats
	tr    *tracer
	took  *time.Duration
}

func (g tracedGen) Name() string { return g.inner.Name() }

func (g tracedGen) Generate(history []drift.Era, horizon int) ([]drift.TimedModel, error) {
	t0 := time.Now()
	models, err := g.inner.Generate(history, horizon)
	*g.took = time.Since(t0)
	if err != nil {
		return nil, err
	}
	out := make([]drift.TimedModel, len(models))
	for i, m := range models {
		wrapped, err := wrapModel(m.Model, g.st, g.tr)
		if err != nil {
			return nil, err
		}
		out[i] = drift.TimedModel{Model: wrapped, Threshold: m.Threshold}
	}
	return out, nil
}

// fsStats counts the I/O of one countingFS.
type fsStats struct {
	// written leaves out the session sidecar (meta.json), whose creation
	// timestamp makes its length vary by a byte or two between runs.
	written, read, fsyncs atomic.Int64

	mu       sync.Mutex
	syncDur  []time.Duration
	readAtNs []time.Duration
}

func (s *fsStats) snapshot() fsCounts {
	return fsCounts{s.written.Load(), s.read.Load(), s.fsyncs.Load()}
}

type fsCounts struct{ written, read, fsyncs int64 }

func (a fsCounts) sub(b fsCounts) fsCounts {
	return fsCounts{a.written - b.written, a.read - b.read, a.fsyncs - b.fsyncs}
}

// takeTimings returns and clears the recorded fsync and positional-read
// latencies.
func (s *fsStats) takeTimings() (syncs, readAts []time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	syncs, readAts = s.syncDur, s.readAtNs
	s.syncDur, s.readAtNs = nil, nil
	return syncs, readAts
}

// countingFS is a fault.FS that forwards to the real filesystem and counts
// bytes, fsyncs and their latencies.
type countingFS struct {
	inner fault.FS
	st    *fsStats
}

func newCountingFS() *countingFS { return &countingFS{inner: fault.OS, st: &fsStats{}} }

func (c *countingFS) wrap(f fault.File, err error) (fault.File, error) {
	if err != nil {
		return nil, err
	}
	meta := strings.HasPrefix(filepath.Base(f.Name()), "meta.json")
	return &countingFile{File: f, st: c.st, meta: meta}, nil
}

func (c *countingFS) OpenFile(path string, flag int, perm os.FileMode) (fault.File, error) {
	return c.wrap(c.inner.OpenFile(path, flag, perm))
}
func (c *countingFS) Open(path string) (fault.File, error) { return c.wrap(c.inner.Open(path)) }
func (c *countingFS) Rename(oldPath, newPath string) error { return c.inner.Rename(oldPath, newPath) }
func (c *countingFS) Remove(path string) error             { return c.inner.Remove(path) }
func (c *countingFS) RemoveAll(path string) error          { return c.inner.RemoveAll(path) }
func (c *countingFS) MkdirAll(path string, perm os.FileMode) error {
	return c.inner.MkdirAll(path, perm)
}
func (c *countingFS) ReadDir(path string) ([]os.DirEntry, error) { return c.inner.ReadDir(path) }
func (c *countingFS) Stat(path string) (os.FileInfo, error)      { return c.inner.Stat(path) }

type countingFile struct {
	fault.File
	st   *fsStats
	meta bool
}

func (f *countingFile) wrote(n int) {
	if !f.meta {
		f.st.written.Add(int64(n))
	}
}

func (f *countingFile) Write(b []byte) (int, error) {
	n, err := f.File.Write(b)
	f.wrote(n)
	return n, err
}

func (f *countingFile) WriteAt(b []byte, off int64) (int, error) {
	n, err := f.File.WriteAt(b, off)
	f.wrote(n)
	return n, err
}

func (f *countingFile) Read(b []byte) (int, error) {
	n, err := f.File.Read(b)
	f.st.read.Add(int64(n))
	return n, err
}

func (f *countingFile) ReadAt(b []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := f.File.ReadAt(b, off)
	d := time.Since(t0)
	f.st.read.Add(int64(n))
	f.st.mu.Lock()
	f.st.readAtNs = append(f.st.readAtNs, d)
	f.st.mu.Unlock()
	return n, err
}

func (f *countingFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	d := time.Since(t0)
	f.st.fsyncs.Add(1)
	f.st.mu.Lock()
	f.st.syncDur = append(f.st.syncDur, d)
	f.st.mu.Unlock()
	return err
}
