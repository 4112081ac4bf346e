// Command e2e is the benchmark's untraced end-to-end run. It sets one
// workload up several times, measures it for --seconds host seconds,
// checks its outputs, and prints every end-to-end metric with its unit;
// the last line of standard output is the result object.
//
//	go run ./cmd/e2e --workload node-busy --seed 1 --seconds 20
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/machine"
	"trickledown/internal/power"
	"trickledown/perfbench/internal/bench"
)

// Each workload is set up at least setupRuns times and until setupSec
// host seconds have passed, and the last set-up is the one measured.
// setup_s is the set-up time nine set-ups in ten stay within, for the
// reason the timed metrics are tail quantiles (see bench.EndToEnd): a
// shared host's speed flips between states up to 1.5x apart and holds
// one for seconds to minutes, so the median of the set-ups, and their
// minimum, land wherever the mix of states fell, while the slower state
// recurs in almost every run.
const (
	setupRuns = 3
	setupSec  = 8.0
)

func main() {
	a, err := bench.ParseArgs("e2e", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(2)
	}
	// Leave the run's own time plus set-up and checks, well inside the
	// three minutes a run may take.
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(a.Seconds*float64(time.Second))+120*time.Second)
	defer cancel()
	rep := bench.NewReport(a, false, bench.EndToEnd)
	switch a.Workload {
	case "node-busy":
		err = nodeBusy(ctx, a, rep)
	case "fleet-idle-io":
		err = fleetIdleIO(ctx, a, rep)
	}
	if err != nil {
		rep.Fail(err)
	}
	if err := rep.Print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
	if !rep.Correct() {
		os.Exit(1)
	}
}

// setup runs fn at least setupRuns times and for at least setupSec,
// reports the p90 as setup_s, and returns the last run's result.
func setup[T any](rep *bench.Report, fn func() (T, error)) (T, error) {
	var out T
	var took bench.Dist
	start := time.Now()
	for len(took) < setupRuns || time.Since(start).Seconds() < setupSec {
		t0 := time.Now()
		v, err := fn()
		if err != nil {
			return out, err
		}
		took = append(took, time.Since(t0).Seconds())
		out = v
	}
	rep.Set("setup_s", took.Q(0.9), "p90 of set-ups; "+took.Summary())
	return out, nil
}

// timedFor returns the deadline of the timed phase.
func timedFor(a bench.Args) time.Time {
	return time.Now().Add(time.Duration(a.Seconds * float64(time.Second)))
}

func finite(r power.Reading) bool {
	for _, v := range r {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// setLatency reports the host time of the stepping calls.
func setLatency(rep *bench.Report, ms bench.Dist) {
	rep.Set("latency_ms_p90", ms.Q(0.9), ms.Summary())
}

// setRate reports the throughput nine windows in ten reach.
func setRate(rep *bench.Report, rates bench.Dist, note string) {
	rep.Set("samples_per_s", rates.Q(bench.SustainedQ), fmt.Sprintf("p10 of window rates %s; %s", rates.Summary(), note))
}

// checkErr reports the accuracy metric and checks it against the
// paper's bound.
func checkErr(rep *bench.Report, pct float64, over string) {
	rep.Set("est_err_pct", pct, over)
	rep.Check("est_err_pct", pct < bench.ErrBoundPct, fmt.Sprintf("%.4f%% < %g%% over %s", pct, bench.ErrBoundPct, over))
}

// nodeBusy steps one busy server a simulated second per call and reads
// the estimate of the sample each call produced.
func nodeBusy(ctx context.Context, a bench.Args, rep *bench.Report) error {
	type state struct {
		est *core.Estimator
		srv *machine.Server
	}
	st, err := setup(rep, func() (state, error) {
		est, err := bench.TrainEstimator()
		if err != nil {
			return state{}, err
		}
		srv, err := bench.BusyNode(bench.EpisodeSeed(a.Seed, 0))
		return state{est, srv}, err
	})
	if err != nil {
		return err
	}
	first, srv := st.srv, st.srv
	var steps bench.Dist
	heap := bench.StartHeapPeak(&steps)
	var host time.Duration
	attempted, failed, episode, k := 0, 0, 0, 0
	deadline := timedFor(a)
	for time.Now().Before(deadline) {
		if k == bench.BusySteps {
			heap.Observe()
			episode++
			k = 0
			if srv, err = bench.BusyNode(bench.EpisodeSeed(a.Seed, episode)); err != nil {
				return err
			}
		}
		t0 := time.Now()
		runErr := srv.RunContext(ctx, bench.StepSec)
		// The sampling period is jittered, so a call's newest sample can
		// be the previous call's; it is the estimate a live meter shows.
		samples := srv.Sampler().Samples()
		ok := runErr == nil && len(samples) > 0 && finite(st.est.Estimate(&samples[len(samples)-1]))
		dt := time.Since(t0)
		host += dt
		steps = append(steps, bench.Ms(dt))
		attempted++
		k++
		if !ok {
			failed++
		}
	}
	rep.Set("heap_peak_mb", heap.StopMB(), "")
	rep.Ops(attempted, failed)
	setRate(rep, bench.WindowRates(bench.StepSec, steps, 25),
		fmt.Sprintf("windows of 25 calls; %d calls of %gs simulated in %.3fs host, %d episodes", attempted, bench.StepSec, host.Seconds(), episode+1))
	setLatency(rep, steps)

	// The accuracy metric covers the first episode's stepped rows, a
	// fixed horizon, so it does not depend on host speed.
	if episode == 0 {
		if err := first.RunContext(ctx, float64(bench.BusySteps-k)*bench.StepSec); err != nil {
			return err
		}
	}
	ds, err := first.Dataset()
	if err != nil {
		return err
	}
	rows := ds.Rows[len(ds.Rows)-bench.BusySteps:]
	checkErr(rep, bench.EstErrPct(st.est, rows), fmt.Sprintf("%d rows", len(rows)))
	return nil
}

// fleetIdleIO steps a mostly idle fleet in fixed intervals with a
// snapshot after each, the way a scheduling loop polls it.
func fleetIdleIO(ctx context.Context, a bench.Args, rep *bench.Report) error {
	workers := runtime.GOMAXPROCS(0)
	type state struct {
		est   *core.Estimator
		nodes []bench.FleetNode
		c     *cluster.Cluster
	}
	st, err := setup(rep, func() (state, error) {
		est, err := bench.TrainEstimator()
		if err != nil {
			return state{}, err
		}
		nodes, err := bench.FleetSpec(bench.EpisodeSeed(a.Seed, 0))
		if err != nil {
			return state{}, err
		}
		c, err := bench.BuildFleet(est, nodes, workers)
		return state{est, nodes, c}, err
	})
	if err != nil {
		return err
	}
	c := st.c
	var steps bench.Dist
	heap := bench.StartHeapPeak(&steps)
	var host time.Duration
	var snap, checkSnap []cluster.Estimate
	var checkTotal float64
	attempted, failed, episode, k := 0, 0, 0, 0
	coverageOK := true
	deadline := timedFor(a)
	// The determinism check reads the first episode at a fixed horizon,
	// which the loop always reaches.
	for time.Now().Before(deadline) || (episode == 0 && k < bench.FleetCheckIntervals) {
		if k == bench.FleetIntervals {
			heap.Observe()
			coverageOK = coverageOK && c.Coverage().Full()
			episode++
			k = 0
			nodes, err := bench.FleetSpec(bench.EpisodeSeed(a.Seed, episode))
			if err != nil {
				return err
			}
			if c, err = bench.BuildFleet(st.est, nodes, workers); err != nil {
				return err
			}
		}
		t0 := time.Now()
		runErr := c.RunContext(ctx, bench.FleetIntervalSec)
		var total float64
		var snapErr error
		snap, total, snapErr = c.SnapshotInto(snap)
		dt := time.Since(t0)
		if time.Now().Before(deadline) {
			host += dt
			steps = append(steps, bench.Ms(dt))
			attempted++
			if runErr != nil || snapErr != nil || len(snap) != bench.FleetNodes || math.IsNaN(total) {
				failed++
			}
		}
		k++
		if episode == 0 && k == bench.FleetCheckIntervals {
			checkSnap = append([]cluster.Estimate(nil), snap...)
			checkTotal = total
		}
	}
	rep.Set("heap_peak_mb", heap.StopMB(), "")
	rep.Ops(attempted, failed)
	setRate(rep, bench.WindowRates(bench.FleetNodes*bench.FleetIntervalSec, steps, 2),
		fmt.Sprintf("windows of 2 intervals; %d intervals of %d nodes x %gs in %.3fs host at workers=%d, %d episodes", attempted, bench.FleetNodes, bench.FleetIntervalSec, host.Seconds(), workers, episode+1))
	setLatency(rep, steps)
	rep.Check("coverage_full", coverageOK && c.Coverage().Full(), "every node healthy and undegraded")

	// The accuracy metric covers a fixed horizon of the first episode's
	// nodes, so it does not depend on host speed.
	pct, n, err := bench.FleetErrPct(ctx, st.est, st.nodes)
	if err != nil {
		return err
	}
	checkErr(rep, pct, fmt.Sprintf("%d rows of two nodes per kind", n))

	// The same fleet stepped by one worker must snapshot bit-identically.
	serial, err := bench.BuildFleet(st.est, st.nodes, 1)
	if err != nil {
		return err
	}
	for i := 0; i < bench.FleetCheckIntervals; i++ {
		if err := serial.RunContext(ctx, bench.FleetIntervalSec); err != nil {
			return err
		}
	}
	ser, serTotal, err := serial.Snapshot()
	if err != nil {
		return err
	}
	same := len(ser) == len(checkSnap) && math.Float64bits(serTotal) == math.Float64bits(checkTotal)
	for i := 0; same && i < len(ser); i++ {
		same = ser[i].Name == checkSnap[i].Name && math.Float64bits(ser[i].Watts) == math.Float64bits(checkSnap[i].Watts)
	}
	rep.Check("snapshot_workers_identical", same, fmt.Sprintf("workers=1 vs workers=%d after %d intervals", workers, bench.FleetCheckIntervals))
	return nil
}
