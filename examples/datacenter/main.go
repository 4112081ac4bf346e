// Datacenter: the paper's ensemble-management motivation (Section 1 and
// the Rajamani/Ranganathan citations), built on internal/cluster. A rack
// of simulated servers runs heterogeneous workloads; a manager that has
// NO power sensors estimates each node's draw from performance counters
// (stepping all nodes in parallel on the cluster's worker pool), checks
// the rack against a power budget, plans which nodes to consolidate away
// — largest consumers first, so the budget is met with the fewest
// migrations — and then physically verifies the plan by co-scheduling an
// evicted node's workload onto a surviving node (machine.NewMixed) and
// measuring the combined box.
//
//	go run ./examples/datacenter
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"log/slog"
	"runtime"
	"time"

	"trickledown/internal/cluster"
	"trickledown/internal/core"
	"trickledown/internal/machine"
	"trickledown/internal/sched"
	"trickledown/internal/telemetry"
)

const rackBudgetWatts = 800

// rackNodes is the fleet: a transaction node, two batch nodes, a Java
// middle tier, a storage node and an idle spare.
var rackNodes = []struct{ name, wl string }{
	{"db01", "dbt-2"}, {"hpc01", "mgrid"}, {"hpc02", "wupwise"},
	{"app01", "specjbb"}, {"store01", "diskload"}, {"spare01", "idle"},
}

func main() {
	log.SetFlags(0)
	metricsAddr := flag.String("metrics-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address (empty = off)")
	verbose := flag.Bool("v", false, "debug-level logging with periodic progress lines")
	flag.Parse()
	logger := telemetry.SetupLogger(*verbose)
	if *metricsAddr != "" {
		obs, err := telemetry.Serve(*metricsAddr)
		if err != nil {
			log.Fatal(err)
		}
		logger.Info("telemetry listening", "addr", obs.Addr().String())
	}
	if *verbose {
		defer telemetry.StartProgress(logger, 2*time.Second)()
	}

	// Train the estimator once; the same model file ships to every node
	// ("since the tool utilizes existing microprocessor performance
	// counters, the cost of implementation is small").
	slog.Info("training the fleet's estimator")
	gcc, err := machine.RunWorkload("gcc", 180, 1)
	if err != nil {
		log.Fatal(err)
	}
	mcf, err := machine.RunWorkload("mcf", 180, 2)
	if err != nil {
		log.Fatal(err)
	}
	dl, err := machine.RunWorkload("diskload", 150, 3)
	if err != nil {
		log.Fatal(err)
	}
	est, err := core.TrainEstimator(core.TrainingSet{
		CPU: gcc, Memory: mcf, Disk: dl, IO: dl, Chipset: gcc,
	})
	if err != nil {
		log.Fatal(err)
	}

	rack, err := cluster.New(est)
	if err != nil {
		log.Fatal(err)
	}
	for i, n := range rackNodes {
		if _, err := rack.AddHomogeneous(n.name, n.wl, uint64(100+i)); err != nil {
			log.Fatal(err)
		}
	}
	slog.Info("observing rack", "nodes", rack.NumNodes(), "budget_watts", rackBudgetWatts,
		"observe_seconds", 90, "workers", rack.Workers(), "cpus", runtime.GOMAXPROCS(0))
	// RunContext steps every node in parallel on the worker pool; an
	// operator's monitoring loop would pass a real deadline or shutdown
	// context here.
	if err := rack.RunContext(context.Background(), 90); err != nil {
		log.Fatal(err)
	}

	snap, total, err := rack.Snapshot()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-9s %12s %12s %8s\n", "node", "est (W)", "meas (W)", "err")
	for _, e := range snap {
		n, ok := rack.Lookup(e.Name)
		if !ok {
			log.Fatalf("snapshot names unknown node %s", e.Name)
		}
		meas, err := n.MeasuredMean()
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-9s %12.1f %12.1f %7.2f%%\n",
			e.Name, e.Watts, meas, 100*abs(e.Watts-meas)/meas)
	}
	fmt.Printf("%-9s %12.1f\n\n", "rack", total)

	acc, err := rack.VerifyAccuracy()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sensorless accuracy across the rack: %.2f%%\n\n", acc)

	// Plan against the budget: largest consumers are powered down first,
	// so the fewest workloads have to move. With no host capacity and no
	// idle floor in the input, sched.Plan sheds whole nodes until the
	// budget fits, stopping one node short of emptying the rack.
	fleet := make([]sched.NodeInfo, len(snap))
	for i, e := range snap {
		fleet[i] = sched.NodeInfo{Name: e.Name, Watts: e.Watts, Healthy: true}
	}
	plan := sched.Plan(fleet, sched.Config{BudgetWatts: rackBudgetWatts})
	if len(plan.Actions) == 0 {
		fmt.Printf("estimated rack draw %.0f W is within the %d W budget; no action\n",
			total, rackBudgetWatts)
		return
	}
	fmt.Printf("estimated rack draw %.0f W exceeds the %d W budget\n", total, rackBudgetWatts)
	for _, a := range plan.Actions {
		fmt.Printf("  -> consolidate %s onto the remaining nodes and power it down\n", a.Node)
	}
	fmt.Printf("projected draw after consolidation: %.0f W (fits: %v)\n\n", plan.Projected, plan.Fits)

	// Physically verify the first eviction: co-schedule its workload
	// next to the busiest survivor's and measure the combined box.
	evicted := plan.Actions[0].Node
	host := busiestSurvivor(snap, plan.Actions)
	slog.Info("verifying consolidation", "evicted", evicted, "host", host)
	placements := make([]machine.Placement, 0, 8)
	for t := 0; t < 4; t++ {
		placements = append(placements, machine.Placement{Workload: workloadOf(host), Thread: t})
	}
	for t := 4; t < 8; t++ {
		placements = append(placements, machine.Placement{Workload: workloadOf(evicted), Thread: t})
	}
	verify, err := cluster.New(est)
	if err != nil {
		log.Fatal(err)
	}
	combined, err := verify.AddMixed(host+"+"+evicted, 500, placements)
	if err != nil {
		log.Fatal(err)
	}
	if err := verify.Run(90); err != nil {
		log.Fatal(err)
	}
	combEst, err := combined.EstimatedMean()
	if err != nil {
		log.Fatal(err)
	}
	combMeas, err := combined.MeasuredMean()
	if err != nil {
		log.Fatal(err)
	}
	separate := watts(snap, host) + watts(snap, evicted)
	fmt.Printf("  consolidated node: estimated %.0f W, measured %.0f W\n", combEst, combMeas)
	fmt.Printf("  the two separate nodes drew %.0f W — consolidation nets %.0f W (%.0f%%)\n",
		separate, separate-combMeas, 100*(separate-combMeas)/separate)
}

// busiestSurvivor returns the highest-draw node no action powers down.
func busiestSurvivor(snap []cluster.Estimate, evict []sched.Action) string {
	gone := map[string]bool{}
	for _, a := range evict {
		gone[a.Node] = true
	}
	best, bestW := "", -1.0
	for _, e := range snap {
		if !gone[e.Name] && e.Watts > bestW {
			best, bestW = e.Name, e.Watts
		}
	}
	return best
}

// workloadOf maps a rack node name back to its workload.
func workloadOf(name string) string {
	for _, n := range rackNodes {
		if n.name == name {
			return n.wl
		}
	}
	return "idle"
}

// watts finds a node's estimate in a snapshot.
func watts(snap []cluster.Estimate, name string) float64 {
	for _, e := range snap {
		if e.Name == name {
			return e.Watts
		}
	}
	return 0
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
