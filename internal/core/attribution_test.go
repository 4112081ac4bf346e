package core

import (
	"fmt"
	"math"
	"testing"

	"trickledown/internal/perfctr"
	"trickledown/internal/sim"
)

func TestPerThreadPowerSplitsByBusyShare(t *testing.T) {
	est := trainedEstimator(t)
	s := mkSample(0.8, 1.5, 150, 800, 60, 1.2)
	// Two CPUs x two threads: cpu0 split 3:1, cpu1 all on thread 0.
	s.OSThreadBusySec = []float64{0.6, 0.2, 0.8, 0}
	per := est.PerThreadPower(&s, 2)
	if len(per) != 4 {
		t.Fatalf("per-thread len = %d", len(per))
	}
	perCPU := est.PerCPUPower(&s)
	if got := per[0] + per[1]; math.Abs(got-perCPU[0]) > 1e-9 {
		t.Errorf("cpu0 threads sum %v != per-CPU %v", got, perCPU[0])
	}
	if got := per[2] + per[3]; math.Abs(got-perCPU[1]) > 1e-9 {
		t.Errorf("cpu1 threads sum %v != per-CPU %v", got, perCPU[1])
	}
	// Busy shares order the split; the idle thread still owes part of
	// the infrastructure floor.
	if per[0] <= per[1] {
		t.Errorf("thread0 (%v) should exceed thread1 (%v)", per[0], per[1])
	}
	floor := est.Model(0).Coef[0]
	if per[3] <= 0 || per[3] > floor {
		t.Errorf("idle thread charge = %v, want (0, %v]", per[3], floor)
	}
}

func TestPerThreadPowerEqualSplitWhenAllIdle(t *testing.T) {
	est := trainedEstimator(t)
	s := mkSample(0.01, 0.1, 5, 20, 0, 0.1)
	s.OSThreadBusySec = []float64{0, 0, 0, 0}
	per := est.PerThreadPower(&s, 2)
	if per == nil {
		t.Fatal("nil attribution")
	}
	if math.Abs(per[0]-per[1]) > 1e-9 {
		t.Errorf("idle split uneven: %v vs %v", per[0], per[1])
	}
}

func TestPerThreadPowerRequiresAccounting(t *testing.T) {
	est := trainedEstimator(t)
	s := mkSample(0.5, 1, 100, 500, 10, 1)
	if est.PerThreadPower(&s, 2) != nil {
		t.Error("attribution without OS thread accounting")
	}
	s.OSThreadBusySec = []float64{0.5} // too short
	if est.PerThreadPower(&s, 2) != nil {
		t.Error("attribution with short accounting")
	}
	s.OSThreadBusySec = []float64{0.5, 0.5, 0.5, 0.5}
	if est.PerThreadPower(&s, 0) != nil {
		t.Error("attribution with zero threadsPerCPU")
	}
	s.IntervalSec = 0
	if est.PerThreadPower(&s, 2) != nil {
		t.Error("attribution with zero interval")
	}
}

// estimatorWithCPU builds an estimator whose CPU model has the given
// coefficients; the other subsystems are zero models.
func estimatorWithCPU(t *testing.T, cpuCoef []float64) *Estimator {
	t.Helper()
	mk := func(spec ModelSpec) *Model {
		coef := make([]float64, len(spec.Design(ExtractMetrics(&perfctr.Sample{CPUs: make([]perfctr.CPUCounts, 1)}))))
		return &Model{Spec: spec, Coef: coef}
	}
	est, err := NewEstimator(&Model{Spec: CPUSpec(), Coef: cpuCoef},
		mk(MemBusSpec()), mk(DiskSpec()), mk(IOSpec()), mk(ChipsetSpec()))
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// TestPerThreadPowerBelowFloorSplitsEvenly: a processor estimate below
// the CPU model's halted floor has no dynamic part, so its threads share
// it evenly — the same clamp per-tenant attribution applies — instead of
// one thread absorbing the whole negative residue.
func TestPerThreadPowerBelowFloorSplitsEvenly(t *testing.T) {
	est := estimatorWithCPU(t, []float64{40, -10, 0})
	s := mkSample(0.8, 1.5, 150, 800, 60, 1.2)
	s.OSThreadBusySec = []float64{0.8, 0, 0.8, 0}
	perCPU := est.PerCPUPower(&s)
	per := est.PerThreadPower(&s, 2)
	if len(per) != 4 {
		t.Fatalf("per-thread len = %d", len(per))
	}
	for cpu := 0; cpu < 2; cpu++ {
		if perCPU[cpu] >= 40 {
			t.Fatalf("cpu%d estimate %v is not below the 40 W floor", cpu, perCPU[cpu])
		}
		busy, idle := per[2*cpu], per[2*cpu+1]
		if busy != perCPU[cpu]/2 || idle != perCPU[cpu]/2 {
			t.Errorf("cpu%d threads = %v, %v; want %v each", cpu, busy, idle, perCPU[cpu]/2)
		}
		if busy+idle != perCPU[cpu] {
			t.Errorf("cpu%d threads sum %v != per-CPU %v", cpu, busy+idle, perCPU[cpu])
		}
	}
}

// TestPerThreadPowerConserves holds per-thread attribution to
// CheckAttribution's conservation property over seeded samples, some of
// them below the halted floor.
func TestPerThreadPowerConserves(t *testing.T) {
	est := trainedEstimator(t)
	rng := sim.NewRNG(7)
	for trial := 0; trial < 200; trial++ {
		s := mkSample(rng.Float64(), 3*rng.Float64(), 400*rng.Float64(), 2000*rng.Float64(), 100*rng.Float64(), 2*rng.Float64())
		s.OSThreadBusySec = make([]float64, 4)
		for i := range s.OSThreadBusySec {
			if rng.Float64() < 0.7 {
				s.OSThreadBusySec[i] = rng.Float64()
			}
		}
		e := est
		if trial%4 == 0 {
			e = estimatorWithCPU(t, []float64{40, -30 * rng.Float64(), 0})
		}
		perCPU := e.PerCPUPower(&s)
		per := e.PerThreadPower(&s, 2)
		for cpu := range perCPU {
			what := fmt.Sprintf("trial %d cpu%d", trial, cpu)
			if err := checkConserved(what, per[2*cpu]+per[2*cpu+1], perCPU[cpu]); err != nil {
				t.Fatal(err)
			}
		}
	}
}
