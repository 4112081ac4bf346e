package bench

import (
	"context"
	"fmt"
	"math"

	"trickledown/internal/align"
	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/experiments"
	"trickledown/internal/machine"
	"trickledown/internal/workload"
)

// TrainScale is the duration scale the estimator is trained at during
// set-up. The training seeds are fixed: the model is the deployed
// artifact, and --seed varies the workload it is applied to.
const TrainScale = 0.02

// TrainEstimator fits the paper's five production models through
// experiments.Runner.
func TrainEstimator() (*core.Estimator, error) {
	est, err := experiments.NewRunner(experiments.Options{Seed: 100, TrainSeed: 10, Scale: TrainScale}).Estimator()
	if err != nil {
		return nil, fmt.Errorf("train estimator: %w", err)
	}
	return est, nil
}

// Simulated-time shape of the simulator workloads.
const (
	// StartStagger separates the start times of consecutive hardware
	// threads. WarmSec runs every node past the last start and past the
	// first ten simulated seconds, whose steps cost up to twice the
	// steady state's, before timing.
	StartStagger = 0.25
	WarmSec      = 15
	// BusySteps is one node-busy episode: stepping calls of StepSec
	// simulated seconds each, after which the node is rebuilt, so a
	// run's later calls do not pay for a longer history.
	StepSec   = 1.0
	BusySteps = 300
	// FleetNodes, FleetIntervalSec and FleetIntervals shape a
	// fleet-idle-io episode; FleetCheckIntervals is how far the
	// workers=1 replica runs for the determinism check.
	FleetNodes          = 32
	FleetIntervalSec    = 1.0
	FleetIntervals      = 120
	FleetCheckIntervals = 3
	// ErrBoundPct is the paper's bound on the mean estimation error.
	ErrBoundPct = 9.0
)

// EpisodeSeed derives the machine seed of episode e of a run.
func EpisodeSeed(seed uint64, e int) uint64 { return seed*7919 + uint64(e)*104729 + 1 }

// BusyPlacements is node-busy's mix: on every processor a CPU-bound gcc
// instance shares the core with a memory-bound mcf instance, all eight
// threads busy.
func BusyPlacements() []machine.Placement {
	var p []machine.Placement
	for t := 0; t < 8; t++ {
		name := "gcc"
		if t%2 == 1 {
			name = "mcf"
		}
		p = append(p, machine.Placement{Workload: name, Thread: t, StartSec: float64(t) * StartStagger})
	}
	return p
}

// fillPlacements places n instances of one workload on threads 0..n-1.
func fillPlacements(name string, n int) []machine.Placement {
	p := make([]machine.Placement, n)
	for t := range p {
		p[t] = machine.Placement{Workload: name, Thread: t, StartSec: float64(t) * StartStagger}
	}
	return p
}

// FleetNode is one node of the fleet-idle-io cluster.
type FleetNode struct {
	Name       string
	Cfg        machine.Config
	Placements []machine.Placement
}

// fleetKinds cycles over the node types: a quarter busy, the rest the
// mostly idle, I/O-bound mix of a commercial fleet.
var fleetKinds = []string{"busy", "dbt-2", "idle", "diskload"}

// FleetSpec returns the nodes of a fleet-idle-io episode.
func FleetSpec(seed uint64) ([]FleetNode, error) {
	nodes := make([]FleetNode, FleetNodes)
	for i := range nodes {
		kind := fleetKinds[i%len(fleetKinds)]
		cfg := machine.DefaultConfig()
		cfg.Seed = seed*131 + uint64(i)
		var pl []machine.Placement
		if kind == "busy" {
			pl = BusyPlacements()
		} else {
			spec, err := workload.ByName(kind)
			if err != nil {
				return nil, err
			}
			pl = fillPlacements(kind, spec.Instances)
		}
		nodes[i] = FleetNode{Name: fmt.Sprintf("%s-%02d", kind, i), Cfg: cfg, Placements: pl}
	}
	return nodes, nil
}

// BuildFleet adds the nodes to a new cluster stepping on workers workers
// and warms it so every node has samples.
func BuildFleet(est *core.Estimator, nodes []FleetNode, workers int) (*cluster.Cluster, error) {
	c, err := cluster.New(est)
	if err != nil {
		return nil, err
	}
	c.SetWorkers(workers)
	for _, n := range nodes {
		if _, err := c.AddMixedConfig(n.Name, n.Cfg, n.Placements); err != nil {
			return nil, fmt.Errorf("add %s: %w", n.Name, err)
		}
	}
	if err := c.Run(WarmSec); err != nil {
		return nil, fmt.Errorf("warm fleet: %w", err)
	}
	return c, nil
}

// BusyNode builds a node-busy server and warms it past the staggered
// starts.
func BusyNode(seed uint64) (*machine.Server, error) {
	cfg := machine.DefaultConfig()
	cfg.Seed = seed
	srv, err := machine.NewMixed(cfg, BusyPlacements())
	if err != nil {
		return nil, err
	}
	srv.Run(WarmSec)
	return srv, nil
}

// EstErrPct is the paper's Equation 6 error averaged over rows: the mean
// of |estimated - measured| / measured total power, in percent.
func EstErrPct(est *core.Estimator, rows []align.Row) float64 {
	sum, n := 0.0, 0
	for i := range rows {
		meas := rows[i].Power.Total()
		if meas == 0 {
			continue
		}
		sum += math.Abs(est.Estimate(&rows[i].Counters).Total()-meas) / meas
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n) * 100
}

// FleetErrPct is fleet-idle-io's accuracy metric: EstErrPct over the
// stepped rows of the first two nodes of each kind of the fleet nodes
// describes, a quarter of the fleet in its proportions,
// rebuilt outside the cluster (which keeps its servers private) and
// stepped on the cluster's schedule: the warm-up, then FleetIntervals
// intervals. It returns the error and the number of rows.
func FleetErrPct(ctx context.Context, est *core.Estimator, nodes []FleetNode) (float64, int, error) {
	var rows []align.Row
	for _, n := range nodes[:2*len(fleetKinds)] {
		srv, err := machine.NewMixed(n.Cfg, n.Placements)
		if err != nil {
			return 0, 0, err
		}
		if err := srv.RunContext(ctx, WarmSec); err != nil {
			return 0, 0, err
		}
		for k := 0; k < FleetIntervals; k++ {
			if err := srv.RunContext(ctx, FleetIntervalSec); err != nil {
				return 0, 0, err
			}
		}
		ds, err := srv.Dataset()
		if err != nil {
			return 0, 0, fmt.Errorf("%s: %w", n.Name, err)
		}
		rows = append(rows, ds.Rows[len(ds.Rows)-FleetIntervals:]...)
	}
	return EstErrPct(est, rows), len(rows), nil
}
