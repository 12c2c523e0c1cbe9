package main

import (
	"math"
	"math/rand"
	"sync"
	"time"
)

// The host this benchmark runs on is a small VM on a shared machine. How
// much of the wall clock its vCPUs get, and how fast they run when they get
// it, both change by tens of percent, up to twofold, within seconds and
// between runs, with almost no steal time reported to the guest. Rates and
// latencies measured alone follow that drift. The gauge below is a fixed
// piece of work owned by the benchmark, read between the slices of the
// measured phase; the end-to-end metrics are reported at the gauge's nominal
// speed, so the host's drift cancels and a change to the program does not.

// gaugeChain is the length of the gauge's pointer chain: 256 KiB of uint32,
// about a core's private cache, so the gauge feels cache contention as well
// as lost CPU time.
const gaugeChain = 1 << 16

// gaugeSteps is the number of chain steps in one unit of gauge work.
const gaugeSteps = 1024

// Nominal gauge speeds, in units per second of wall time and per second of
// process CPU time, per goroutine. They only fix the scale of the reported
// metrics (a host that reads exactly these reports raw values); they are
// about what the gauge read on a 2-vCPU Xeon VM in its slower spells.
const (
	gaugeNominalWall = 25000.0
	gaugeNominalCPU  = 25000.0
)

// gaugeElasticity is how much the program's times follow the gauge: when the
// gauge ran k times faster, they ran about k^0.85 times faster. Fitted over
// runs spanning a 2.6-fold change of the gauge's speed, the slope of each
// end-to-end time's logarithm on the gauge's was 0.73 to 1.0, lower for work
// that waits on the disk or on memory, which a faster vCPU speeds up less.
const gaugeElasticity = 0.85

// atNominal is the factor that takes a time measured at the given gauge
// speed (relative to the nominal speed) to the nominal speed.
func atNominal(speed float64) float64 { return math.Pow(speed, gaugeElasticity) }

// hostGauge is the benchmark's fixed reference work: a dependent walk over a
// random cyclic permutation, logistic scoring of each step and a lookup in
// a map, the kinds of work the session pipeline does. It allocates nothing
// once built, so the garbage collector does not run during a reading.
type hostGauge struct {
	chain      []uint32
	table      map[uint32]uint32
	goroutines int
}

func newHostGauge(goroutines int) *hostGauge {
	rng := rand.New(rand.NewSource(1))
	perm := rng.Perm(gaugeChain)
	g := &hostGauge{chain: make([]uint32, gaugeChain), table: make(map[uint32]uint32, 1<<12), goroutines: goroutines}
	// One cycle through every slot: perm[i] → perm[i+1].
	for i := range perm {
		g.chain[perm[i]] = uint32(perm[(i+1)%len(perm)])
	}
	for i := uint32(0); i < 1<<12; i++ {
		g.table[i*7919%(1<<16)] = i
	}
	return g
}

// unit does one unit of gauge work from chain position p and returns the
// position to continue from; sink keeps the arithmetic live.
func (g *hostGauge) unit(p uint32, sink *float64) uint32 {
	acc := 0.0
	for i := 0; i < gaugeSteps; i++ {
		p = g.chain[p]
		acc += 1 / (1 + math.Exp(-float64(p&1023)/256))
		if v, ok := g.table[p&0xffff]; ok {
			acc += float64(v)
		}
	}
	*sink += acc
	return p
}

// gaugeReading is one reading of the gauge, relative to the nominal one.
type gaugeReading struct {
	// speed is units per second of wall time: it falls both when the vCPUs
	// are descheduled and when they run slowly. cpuSpeed is units per
	// second of process CPU time: it falls when they run slowly.
	speed, cpuSpeed float64
	// cpu0 is the process CPU time when the reading started.
	cpu0 time.Duration
}

// read runs the gauge on every goroutine it was built for, for d.
func (g *hostGauge) read(d time.Duration) gaugeReading {
	counts := make([]int, g.goroutines)
	sinks := make([]float64, g.goroutines)
	var wg sync.WaitGroup
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	for i := range counts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := uint32(i * (gaugeChain / 4))
			for time.Now().Before(deadline) {
				p = g.unit(p, &sinks[i])
				counts[i]++
			}
		}(i)
	}
	wg.Wait()
	wall, cpu := time.Since(start), cpuTime()-cpu0
	units := 0.0
	for _, c := range counts {
		units += float64(c)
	}
	return gaugeReading{
		speed:    units / float64(g.goroutines) / wall.Seconds() / gaugeNominalWall,
		cpuSpeed: units / cpu.Seconds() / gaugeNominalCPU,
		cpu0:     cpu0,
	}
}
