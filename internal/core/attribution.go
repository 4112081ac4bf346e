package core

import (
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
)

// Thread-level power attribution — the paper's Section 4.2.1 endgame:
// "this is particularly challenging in virtual machine environments in
// which multiple customers could be simultaneously running applications
// on a single physical processor. For this reason, process-level power
// accounting is essential."
//
// Equation 1 attributes power to physical processors; on an SMT
// processor two tenants share one. The split below divides each
// processor's estimated power into an infrastructure part (the halted
// floor, owed equally by whoever is scheduled there) and a dynamic part
// divided by OS-accounted per-thread busy time — the same accounting
// the billing story already requires the OS to keep.

// PerThreadPower attributes the CPU-subsystem estimate to hardware
// threads. The sample must carry OS per-thread busy accounting
// (OSThreadBusySec) with threadsPerCPU entries per processor; otherwise
// nil is returned. The per-thread values of each processor sum to that
// processor's Equation 1 attribution.
func (e *Estimator) PerThreadPower(s *perfctr.Sample, threadsPerCPU int) []float64 {
	if threadsPerCPU <= 0 {
		return nil
	}
	m := ExtractMetrics(s)
	perCPU := e.PerCPUPower(s)
	want := m.NumCPUs * threadsPerCPU
	if len(s.OSThreadBusySec) < want || s.IntervalSec <= 0 {
		return nil
	}
	cm := e.Model(power.SubCPU)
	if cm == nil || len(cm.Coef) < 1 {
		return nil
	}
	idle := cm.Coef[0] // per-processor infrastructure (halted floor)
	out := make([]float64, want)
	for cpuID := 0; cpuID < m.NumCPUs; cpuID++ {
		base := cpuID * threadsPerCPU
		splitPower(out[base:base+threadsPerCPU], perCPU[cpuID], idle,
			s.OSThreadBusySec[base:base+threadsPerCPU])
	}
	return out
}

// splitPower divides total among len(out) parties, the split both
// per-thread and per-tenant attribution use: the idle floor is shared
// evenly, the dynamic part total−idle goes by each party's share of
// weights (evenly when no party has weight), and the rounding residue
// goes to party 0 so out sums to total exactly. A total below the idle
// floor has no dynamic part and is shared evenly.
func splitPower(out []float64, total, idle float64, weights []float64) {
	floor, dyn := idle, total-idle
	if dyn < 0 {
		floor, dyn = total, 0
	}
	n := float64(len(out))
	var denom float64
	for _, w := range weights {
		denom += w
	}
	var sum float64
	for i := range out {
		share := 1 / n
		if denom > 0 {
			share = weights[i] / denom
		}
		out[i] = floor/n + dyn*share
		sum += out[i]
	}
	if diff := total - sum; diff != 0 {
		out[0] += diff
	}
}
