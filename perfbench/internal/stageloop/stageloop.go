// Package stageloop is the traced benchmark run's copy of the simulated
// server: machine.Server's assembly and per-slice stage loop, rebuilt
// from the stages' public constructors and Step/Acquire/Demand calls
// with the same seed and in the same order, so that each of the eight
// stages can be timed from outside the program. The copy is valid only
// while its dataset fingerprint equals machine.Server's for the same
// configuration; the traced run checks that on every node it times.
//
// Only the traced runner imports this package, so a change to a stage
// signature breaks the traced build and never the end-to-end one. It
// is to be deleted once the program records its own stage spans.
package stageloop

import (
	"fmt"
	"math"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/chipset"
	"trickledown/internal/cpu"
	"trickledown/internal/daq"
	"trickledown/internal/disk"
	"trickledown/internal/iobus"
	"trickledown/internal/machine"
	"trickledown/internal/mem"
	"trickledown/internal/osmodel"
	"trickledown/internal/perfctr"
	"trickledown/internal/pmu"
	"trickledown/internal/power"
	"trickledown/internal/sim"
	"trickledown/internal/workload"
	"trickledown/perfbench/internal/bench"
)

// NumStages is the number of timed stages, in bench.StageNames order.
const NumStages = 8

// snoopShare mirrors machine's peer snoop contamination of the DMA
// counter.
const snoopShare = 0.05

type job struct {
	gen   workload.Generator
	start float64
}

// railDrift mirrors machine's per-rail Ornstein-Uhlenbeck drift.
type railDrift struct {
	rng   *sim.RNG
	state power.Reading
	sigma power.Reading
	tau   float64
}

func (d *railDrift) step(sliceSec float64) power.Reading {
	k := math.Sqrt(2 * sliceSec / d.tau)
	for i := range d.state {
		if d.sigma[i] == 0 {
			continue
		}
		d.state[i] += -d.state[i]/d.tau*sliceSec + d.sigma[i]*k*d.rng.Norm(0, 1)
	}
	return d.state
}

// Machine is the timed copy of one simulated server.
type Machine struct {
	cfg     machine.Config
	clock   *sim.Clock
	procs   []*cpu.Processor
	memory  *mem.Memory
	chip    *chipset.Chipset
	io      *iobus.Subsystem
	ctl     *disk.Controller
	os      *osmodel.OS
	dq      *daq.DAQ
	sampler *perfctr.Sampler
	jobs    []job
	demands []workload.Demand
	jobRNGs []*sim.RNG
	env     workload.Env
	busUtil float64
	drift   railDrift
	profile power.Profile
	lastCPU []cpu.SliceStats

	// StageNs accumulates each stage's host time; Slices counts slices.
	StageNs [NumStages]int64
	Slices  int64
	// HaltedCycles, Cycles, BusUtilSum and Interrupts accumulate the
	// model's own activity for the opportunity-size metrics.
	HaltedCycles float64
	Cycles       float64
	BusUtilSum   float64
	Interrupts   int64

	spans     *bench.Spans
	spanEvery int64
}

// New assembles the machine exactly as machine.NewMixed does: every
// constructor that draws on the seeded RNG is called in the same order.
func New(cfg machine.Config, placements []machine.Placement) (*Machine, error) {
	if cfg.NumCPUs <= 0 || cfg.ThreadsPerCPU <= 0 || cfg.NumDisks <= 0 || cfg.Power != nil {
		return nil, fmt.Errorf("stageloop: unsupported configuration")
	}
	threads := cfg.NumCPUs * cfg.ThreadsPerCPU
	if len(placements) == 0 || len(placements) > threads {
		return nil, fmt.Errorf("stageloop: %d placements for %d threads", len(placements), threads)
	}
	rng := sim.NewRNG(cfg.Seed)
	m := &Machine{
		cfg:     cfg,
		clock:   sim.NewClock(cfg.Slice, cfg.CoreHz),
		memory:  mem.New(),
		chip:    chipset.New(rng),
		io:      iobus.New(cfg.NumCPUs),
		ctl:     disk.NewController(cfg.NumDisks, rng),
		demands: make([]workload.Demand, threads),
		profile: power.ServerProfile(),
	}
	m.ctl.SetPowerPolicy(cfg.DiskPolicy)
	for i := 0; i < cfg.NumCPUs; i++ {
		m.procs = append(m.procs, cpu.New(i, rng))
	}
	m.lastCPU = make([]cpu.SliceStats, cfg.NumCPUs)
	m.os = osmodel.New(osmodel.DefaultConfig(cfg.NumCPUs), m.io, m.ctl, rng)
	m.dq = daq.New(cfg.DAQ, rng)
	m.drift = railDrift{
		rng: rng.Split(),
		sigma: power.Reading{
			power.SubCPU:    0.35,
			power.SubMemory: 0.16,
			power.SubIO:     0.12,
			power.SubDisk:   0.025,
		},
		tau: 25,
	}
	pmus := make([]*pmu.PMU, cfg.NumCPUs)
	for i, p := range m.procs {
		pmus[i] = p.PMU()
	}
	sampler, err := perfctr.NewSampler(cfg.SamplePeriodSec, pmus, m.io.APIC, rng)
	if err != nil {
		return nil, err
	}
	m.sampler = sampler
	m.sampler.AttachUtilSource(m.os)
	m.sampler.AttachThreadUtilSource(m.os.ThreadBusySource())
	m.sampler.OnSample(m.dq.SyncPulse)

	m.jobs = make([]job, threads)
	m.jobRNGs = make([]*sim.RNG, threads)
	for i := 0; i < threads; i++ {
		m.jobRNGs[i] = rng.Split()
	}
	seen := map[string]bool{}
	var bias float64
	instanceOf := map[string]int{}
	for _, pl := range placements {
		if pl.Spec != nil || pl.StartSec < 0 || pl.Thread < 0 || pl.Thread >= threads || m.jobs[pl.Thread].gen != nil {
			return nil, fmt.Errorf("stageloop: unsupported placement on thread %d", pl.Thread)
		}
		spec, err := workload.ByName(pl.Workload)
		if err != nil {
			return nil, err
		}
		inst := instanceOf[spec.Name]
		instanceOf[spec.Name]++
		m.jobs[pl.Thread] = job{gen: spec.Make(inst, rng.Split()), start: pl.StartSec}
		if !seen[spec.Name] {
			seen[spec.Name] = true
			bias += spec.ChipsetDomainBias
		}
	}
	m.chip.SetDomainBias(bias / float64(len(seen)))
	return m, nil
}

// ResetCounts zeroes the stage times and activity sums, so a warm-up
// does not count.
func (m *Machine) ResetCounts() {
	m.StageNs = [NumStages]int64{}
	m.Slices = 0
	m.HaltedCycles, m.Cycles, m.BusUtilSum, m.Interrupts = 0, 0, 0, 0
}

// Trace records every everyth slice's stage spans into spans.
func (m *Machine) Trace(spans *bench.Spans, every int64) {
	m.spans, m.spanEvery = spans, every
}

// Run advances the machine by seconds of simulated time, in whole
// slices, as machine.Server.RunContext does.
func (m *Machine) Run(seconds float64) {
	n := int64(time.Duration(seconds*float64(time.Second)) / m.clock.Slice())
	for i := int64(0); i < n; i++ {
		m.step(m.clock)
		m.clock.Tick()
	}
}

// step is machine.Server's slice, with a timestamp between stages.
func (m *Machine) step(c *sim.Clock) {
	var ts [NumStages + 1]time.Time
	ts[0] = time.Now()
	now := c.Seconds()
	sliceSec := c.SliceSeconds()

	// 1. Thread demand.
	for i := range m.jobs {
		j := m.jobs[i]
		if j.gen == nil || now < j.start {
			m.demands[i] = workload.Demand{}
			continue
		}
		m.demands[i] = j.gen.Demand(now-j.start, m.env, m.jobRNGs[i])
	}
	ts[1] = time.Now()

	// 2. OS and the I/O path.
	osRes := m.os.Step(c, m.demands)
	ts[2] = time.Now()

	// 3. Processors.
	cycles := c.CyclesPerSlice()
	var tr mem.Traffic
	var writeTx, locTx, classTx float64
	for i, p := range m.procs {
		st := p.Step(cycles, &m.demands[2*i], &m.demands[2*i+1], m.busUtil)
		m.lastCPU[i] = st
		tr.CPUTx += st.DemandBusTx
		tr.PrefetchTx += st.PrefetchBusTx
		writeTx += st.TotalBusTx() * st.WriteFrac
		locTx += st.TotalBusTx() * st.MemLocality
		classTx += st.TotalBusTx()
	}
	if classTx > 0 {
		tr.WriteFrac = writeTx / classTx
		tr.Locality = locTx / classTx
	} else {
		tr.Locality = 0.5
	}
	tr.DMATx = osRes.DMA.BusTx
	if osRes.DMA.Bytes > 0 {
		tr.DMAWriteFrac = osRes.DMA.WriteBytes / osRes.DMA.Bytes
	}
	ts[3] = time.Now()

	// 4. Memory bus, DRAM and the peers' snoop traffic.
	memStats := m.memory.Step(sliceSec, tr)
	m.busUtil = memStats.Util
	var demandSum float64
	for _, st := range m.lastCPU {
		demandSum += st.DemandBusTx
	}
	for i, p := range m.procs {
		coherence := snoopShare * (demandSum - m.lastCPU[i].DemandBusTx)
		p.ObserveDMA(memStats.DMATx + coherence)
	}
	ts[4] = time.Now()

	// 5. Chipset.
	chipStats := m.chip.Step(sliceSec, memStats.Util)
	ts[5] = time.Now()

	// 6. Ground truth on the five rails. The processors' rail sums in
	// processor order, as machine's processor loop does.
	var cpuTruth float64
	for i := range m.lastCPU {
		cpuTruth += m.profile.CPU(m.lastCPU[i])
	}
	truth := power.Reading{
		power.SubCPU:     cpuTruth,
		power.SubChipset: m.profile.Chipset(chipStats),
		power.SubMemory:  m.profile.Memory(memStats, sliceSec),
		power.SubIO:      m.profile.IO(osRes.DMA, float64(osRes.DeviceInts), sliceSec),
		power.SubDisk:    m.profile.Disk(osRes.Disk, sliceSec, m.cfg.NumDisks),
	}
	for i, d := range m.drift.step(sliceSec) {
		truth[i] += d
	}
	ts[6] = time.Now()

	// 7. Acquisition and counter sampling.
	m.dq.Acquire(sliceSec, truth)
	ts[7] = time.Now()
	m.sampler.Step(c)
	ts[8] = time.Now()

	// 8. Feedback for the next slice's generators.
	m.env = workload.Env{
		BusUtil:     memStats.Util,
		DirtyBytes:  osRes.DirtyBytes,
		FlushActive: osRes.FlushActive,
	}

	for i := 0; i < NumStages; i++ {
		m.StageNs[i] += ts[i+1].Sub(ts[i]).Nanoseconds()
	}
	for i := range m.lastCPU {
		m.HaltedCycles += m.lastCPU[i].HaltedCycles
		m.Cycles += m.lastCPU[i].Cycles
	}
	m.BusUtilSum += memStats.Util
	m.Interrupts += int64(osRes.IntsTotal)
	if m.spans != nil && m.Slices%m.spanEvery == 0 {
		trace := m.spans.NewTrace()
		parent := m.spans.Record("machine.step", trace, 0, ts[0], ts[NumStages])
		for i := 0; i < NumStages; i++ {
			m.spans.Record(bench.StageNames[i], trace, parent, ts[i], ts[i+1])
		}
	}
	m.Slices++
}

// Dataset merges the DAQ and counter logs as machine.Server.Dataset does.
func (m *Machine) Dataset() (*align.Dataset, error) {
	return align.Merge(m.dq.Records(), m.sampler.Samples())
}
