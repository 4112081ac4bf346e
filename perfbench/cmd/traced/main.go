// Command traced is the benchmark's traced per-layer run. It times the
// calls into each layer from outside the program — the eight simulator
// stages through the stageloop copy, machine, align, core, cluster,
// perfctr and serve through their public functions — keeps the spans in
// memory, writes them when the run ends (--spans), and prints every
// per-layer metric with its unit; the last line of standard output is
// the result object.
//
//	go run ./cmd/traced --workload fleet-idle-io --seed 1 --seconds 20
package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/machine"
	"trickledown/internal/perfctr"
	"trickledown/perfbench/internal/bench"
	"trickledown/perfbench/internal/stageloop"
)

// maxSpans bounds the spans kept in memory.
const maxSpans = 200000

func main() {
	a, err := bench.ParseArgs("traced", os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(a.Seconds*float64(time.Second))+120*time.Second)
	defer cancel()
	rep := bench.NewReport(a, true, bench.PerLayer)
	for _, d := range bench.PerLayer {
		rep.Set(d.Name, 0, "not exercised by "+a.Workload)
	}
	spans := bench.NewSpans(maxSpans)
	if err := run(ctx, a, rep, spans); err != nil {
		rep.Fail(err)
	}
	if a.SpansOut != "" {
		if err := spans.Write(a.SpansOut); err != nil {
			rep.Fail(fmt.Errorf("write spans: %w", err))
		} else {
			rep.Note("spans %d written to %s", spans.Len(), a.SpansOut)
		}
	}
	for name, ns := range spans.SelfNs() {
		rep.Note("span_self_ms %s %.3f", name, float64(ns)/1e6)
	}
	if err := rep.Print(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traced:", err)
		os.Exit(1)
	}
	if !rep.Correct() {
		os.Exit(1)
	}
}

func run(ctx context.Context, a bench.Args, rep *bench.Report, spans *bench.Spans) error {
	budget := time.Duration(a.Seconds * float64(time.Second))
	t0 := time.Now()
	est, err := bench.TrainEstimator()
	if err != nil {
		return err
	}
	t1 := time.Now()
	spans.Record("core.train", spans.NewTrace(), 0, t0, t1)
	rep.Set("core.train_ms", bench.Ms(t1.Sub(t0)), fmt.Sprintf("scale %g", bench.TrainScale))

	switch a.Workload {
	case "node-busy":
		nodes := []bench.FleetNode{{Name: "busy", Placements: bench.BusyPlacements()}}
		nodes[0].Cfg = machine.DefaultConfig()
		nodes[0].Cfg.Seed = bench.EpisodeSeed(a.Seed, 0)
		_, err := simLayers(ctx, rep, spans, est, nodes, budget*9/10)
		return err
	case "fleet-idle-io":
		nodes, err := bench.FleetSpec(bench.EpisodeSeed(a.Seed, 0))
		if err != nil {
			return err
		}
		if err := clusterLayers(ctx, rep, spans, est, nodes, budget*3/10); err != nil {
			return err
		}
		rows, err := simLayers(ctx, rep, spans, est, nodes, budget*35/100)
		if err != nil {
			return err
		}
		// The fleet's nodes report to tdserve: the serve and wire layers
		// are measured here, on the samples the fleet's nodes produced.
		names := make([]string, len(nodes))
		for i, n := range nodes {
			names[i] = n.Name
		}
		return serveLayers(ctx, rep, spans, est, names, rows, budget/4)
	}
	return nil
}

// allocs reads the process's cumulative heap allocations without
// stopping the world.
func allocs() (objects, bytes uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}, {Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// simLayers steps every node twice in lockstep, one simulated interval
// at a time: untraced through machine.Server (the reference host time,
// allocations, the align merge and the per-node step times) and traced
// through the stageloop copy (the per-stage self times). The two must
// produce identical datasets. It returns each node's rows.
func simLayers(ctx context.Context, rep *bench.Report, spans *bench.Spans, est *core.Estimator, nodes []bench.FleetNode, budget time.Duration) ([][]align.Row, error) {
	const interval = 1.0
	srvs := make([]*machine.Server, len(nodes))
	copies := make([]*stageloop.Machine, len(nodes))
	for i, n := range nodes {
		var err error
		if srvs[i], err = machine.NewMixed(n.Cfg, n.Placements); err != nil {
			return nil, err
		}
		if copies[i], err = stageloop.New(n.Cfg, n.Placements); err != nil {
			return nil, err
		}
		// Both start past the staggered starts and the first sample, as
		// the end-to-end workloads do.
		if err := srvs[i].RunContext(ctx, bench.WarmSec); err != nil {
			return nil, err
		}
		copies[i].Run(bench.WarmSec)
		// One slice in a thousand keeps its stage spans.
		copies[i].Trace(spans, 1000)
	}
	for i := range copies {
		copies[i].ResetCounts()
	}
	var untraced, traced time.Duration
	var allocObjs, allocBytes uint64
	var merges, stragglers bench.Dist
	simSec := 0.0
	deadline := time.Now().Add(budget)
	for rounds := 0; rounds < 2 || time.Now().Before(deadline); rounds++ {
		var max, sum time.Duration
		for i := range nodes {
			trace := spans.NewTrace()
			o0, b0 := allocs()
			t0 := time.Now()
			if err := srvs[i].RunContext(ctx, interval); err != nil {
				return nil, err
			}
			t1 := time.Now()
			o1, b1 := allocs()
			allocObjs += o1 - o0
			allocBytes += b1 - b0
			spans.Record("machine.run", trace, 0, t0, t1)
			dt := t1.Sub(t0)
			untraced += dt
			sum += dt
			if dt > max {
				max = dt
			}
			// The cluster re-merges a node's whole history after every run.
			t2 := time.Now()
			if _, _, err := srvs[i].DatasetRobust(); err != nil {
				return nil, err
			}
			t3 := time.Now()
			spans.Record("align.merge", trace, 0, t2, t3)
			merges = append(merges, bench.Ms(t3.Sub(t2)))
			copies[i].Run(interval)
			traced += time.Since(t3)
		}
		simSec += interval * float64(len(nodes))
		stragglers = append(stragglers, float64(max)/(float64(sum)/float64(len(nodes))))
	}

	var stageNs [stageloop.NumStages]int64
	var slices int64
	var halted, cycles, busUtil float64
	var ints int64
	var rows []align.Row
	perNode := make([][]align.Row, len(nodes))
	mismatched := 0
	for i := range nodes {
		c := copies[i]
		for s, ns := range c.StageNs {
			stageNs[s] += ns
		}
		slices += c.Slices
		halted += c.HaltedCycles
		cycles += c.Cycles
		busUtil += c.BusUtilSum
		ints += c.Interrupts
		want, err := srvs[i].Dataset()
		if err != nil {
			return nil, err
		}
		got, err := c.Dataset()
		if err != nil {
			return nil, err
		}
		if align.Fingerprint(got) != align.Fingerprint(want) {
			mismatched++
		}
		rows = append(rows, want.Rows...)
		perNode[i] = want.Rows
	}
	rep.Check("stageloop_fingerprint", mismatched == 0,
		fmt.Sprintf("%d of %d nodes differ from machine.Server over %gs simulated", mismatched, len(nodes), bench.WarmSec+simSec/float64(len(nodes))))
	// Each stage's interval spans one clock read, whose cost is not the
	// stage's.
	clock := clockReadNs()
	perSlice := fmt.Sprintf("self time per slice over %d slices, less %.1f ns per clock read", slices, clock)
	sum := 0.0
	for s, ns := range stageNs {
		self := float64(ns)/float64(slices) - clock
		sum += self
		rep.Set(bench.StageNames[s]+"_ns", self, perSlice)
	}
	ratio := sum * float64(slices) / float64(untraced.Nanoseconds())
	rep.Set("machine.layer_sum_ratio", ratio, fmt.Sprintf("stage sum %.3fs over untraced %.3fs", sum*float64(slices)/1e9, untraced.Seconds()))
	rep.Check("layer_sum", math.Abs(ratio-1) <= bench.LayerSumBound, fmt.Sprintf("ratio %.4f within 1±%g", ratio, bench.LayerSumBound))
	rep.Set("machine.trace_overhead", traced.Seconds()/untraced.Seconds()-1, fmt.Sprintf("traced %.3fs vs untraced %.3fs", traced.Seconds(), untraced.Seconds()))
	rep.Set("cpu.halted_share", halted/cycles, "")
	rep.Set("mem.bus_util_mean", busUtil/float64(slices), "")
	rep.Set("osmodel.interrupts_per_s", float64(ints)/simSec, "")
	rep.Set("machine.allocs_per_sim_s", float64(allocObjs)/simSec, fmt.Sprintf("over %g node-s", simSec))
	rep.Set("machine.bytes_per_sim_s", float64(allocBytes)/simSec, fmt.Sprintf("over %g node-s", simSec))
	rep.Set("align.merge_ms", merges.Mean(), "mean; "+merges.Summary())
	if len(nodes) > 1 {
		rep.Set("cluster.node_step_max_over_mean", stragglers.Mean(), "mean over rounds; "+stragglers.Summary())
	}
	return perNode, estimateLayers(rep, spans, est, rows)
}

// clockReadNs returns the median cost of one time.Now call, over batches
// of back-to-back calls.
func clockReadNs() float64 {
	const calls = 1000
	var batches bench.Dist
	for b := 0; b < 51; b++ {
		t0 := time.Now()
		for i := 0; i < calls; i++ {
			_ = time.Now()
		}
		batches = append(batches, float64(time.Since(t0).Nanoseconds())/calls)
	}
	return batches.Median()
}

// estimateLayers times core.ExtractMetrics and Estimator.EstimateMetrics
// per sample over rows, repeating the pass for at least 200 ms each.
func estimateLayers(rep *bench.Report, spans *bench.Spans, est *core.Estimator, rows []align.Row) error {
	if len(rows) == 0 {
		return fmt.Errorf("no rows to estimate")
	}
	trace := spans.NewTrace()
	ms := make([]*core.Metrics, len(rows))
	var calls int
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for i := range rows {
			ms[i] = core.ExtractMetrics(&rows[i].Counters)
		}
		calls += len(rows)
	}
	t1 := time.Now()
	spans.Record("core.extract", trace, 0, t0, t1)
	rep.Set("core.extract_ns", float64(t1.Sub(t0).Nanoseconds())/float64(calls), fmt.Sprintf("%d calls", calls))
	calls = 0
	sink := 0.0
	for time.Since(t1) < 200*time.Millisecond {
		for _, m := range ms {
			sink += est.EstimateMetrics(m).Total()
		}
		calls += len(ms)
	}
	t2 := time.Now()
	spans.Record("core.estimate", trace, 0, t1, t2)
	rep.Set("core.estimate_ns", float64(t2.Sub(t1).Nanoseconds())/float64(calls), fmt.Sprintf("%d calls", calls))
	if math.IsNaN(sink) || math.IsInf(sink, 0) {
		return fmt.Errorf("non-finite estimates")
	}
	return nil
}

// clusterLayers steps the same fleet at workers=GOMAXPROCS and
// workers=1 in alternating intervals, with a snapshot after each.
func clusterLayers(ctx context.Context, rep *bench.Report, spans *bench.Spans, est *core.Estimator, nodes []bench.FleetNode, budget time.Duration) error {
	workers := runtime.GOMAXPROCS(0)
	wide, err := bench.BuildFleet(est, nodes, workers)
	if err != nil {
		return err
	}
	serial, err := bench.BuildFleet(est, nodes, 1)
	if err != nil {
		return err
	}
	var runN, run1, snaps bench.Dist
	deadline := time.Now().Add(budget)
	for rounds := 0; rounds < 2 || time.Now().Before(deadline); rounds++ {
		trace := spans.NewTrace()
		t0 := time.Now()
		if err := wide.RunContext(ctx, bench.FleetIntervalSec); err != nil {
			return err
		}
		t1 := time.Now()
		if _, _, err := wide.Snapshot(); err != nil {
			return err
		}
		t2 := time.Now()
		if err := serial.RunContext(ctx, bench.FleetIntervalSec); err != nil {
			return err
		}
		t3 := time.Now()
		spans.Record("cluster.run_wN", trace, 0, t0, t1)
		spans.Record("cluster.snapshot", trace, 0, t1, t2)
		spans.Record("cluster.run_w1", trace, 0, t2, t3)
		runN = append(runN, bench.Ms(t1.Sub(t0)))
		snaps = append(snaps, bench.Ms(t2.Sub(t1)))
		run1 = append(run1, bench.Ms(t3.Sub(t2)))
	}
	rep.Set("cluster.run_ms_wN", runN.Mean(), fmt.Sprintf("workers=%d mean; %s", workers, runN.Summary()))
	rep.Set("cluster.run_ms_w1", run1.Mean(), "mean; "+run1.Summary())
	rep.Set("cluster.speedup", run1.Mean()/runN.Mean(), fmt.Sprintf("workers=1 over workers=%d", workers))
	rep.Set("cluster.snapshot_ms", snaps.Mean(), "mean; "+snaps.Summary())
	rep.Check("coverage_full", wide.Coverage().Full() && serial.Coverage().Full(), "every node healthy and undegraded")
	return nil
}

// serveLayers runs tdserve in-process behind loopback HTTP, each node
// name fed the newest of its node's rows: an unpaced peak, then an
// open-loop ladder of offered rates with reads mixed in, timed from
// when each request was due, all with client-side spans. It then times
// the wire codec on the batches it sent.
func serveLayers(ctx context.Context, rep *bench.Report, spans *bench.Spans, est *core.Estimator, names []string, rows [][]align.Row, budget time.Duration) (err error) {
	sb, err := bench.StartServe(est, names, rows)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sb.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close tdserve: %w", cerr)
		}
	}()
	sb.ClosedLoop(ctx, 200*time.Millisecond)
	sb.Spans = spans
	ladder, peak := bench.RunServePhases(ctx, sb, budget*8/10)
	sb.Spans = nil
	if err := sb.Drain(ctx); err != nil {
		return err
	}

	var lag, reads bench.Dist
	var queueMax int
	var shed, nonfinite uint64
	slo := 0.0
	attempted, failed := 0, 0
	for _, r := range append(ladder, peak) {
		rep.Note("%s", r.Row("phase"))
		attempted += r.Sent + r.Reads
		failed += r.Failed + r.ReadFailed
		shed += r.Shed
		nonfinite += r.NonFinite
		if r.QueueMax > queueMax {
			queueMax = r.QueueMax
		}
	}
	knee := false // a lower rate already missed the objective
	for _, r := range ladder {
		lag = append(lag, r.Lag...)
		reads = append(reads, r.Read...)
		if knee = knee || !r.Meets(); !knee {
			slo = r.Rate
		}
		if r.Rate == bench.RefRate {
			rep.Set("serve.ack_ms_p50", r.Ack.Q(0.5), r.Ack.Summary())
			rep.Set("serve.ack_ms_p99", r.Ack.Q(0.99), r.Ack.Summary())
			rep.Set("serve.visible_ms_p99", r.Visible.Q(0.99), r.Visible.Summary())
		}
	}
	rep.Ops(attempted, failed)
	rep.Set("serve.gen_lag_ms_p99", lag.Q(0.99), "all ladder rates; "+lag.Summary())
	rep.Set("serve.read_ms_p99", reads.Q(0.99), "all ladder rates; "+reads.Summary())
	rep.Set("serve.queue_depth_max", float64(queueMax), "")
	rep.Set("serve.shed", float64(shed), "")
	rep.Set("serve.nonfinite", float64(nonfinite), "")
	rep.Set("serve.slo_samples_per_s", slo, fmt.Sprintf("highest ladder rate that, with every lower rate, kept visible p99 <= %g ms, shed nothing and left no more backlog than it offers in that time; ladder from a measured peak of %.0f", float64(bench.VisibleLimitMs), peak.Throughput()))
	rep.Set("serve.peak_samples_per_s", peak.Throughput(), fmt.Sprintf("%d clients unpaced, %d samples in %.3fs", runtime.GOMAXPROCS(0), peak.Samples, peak.Elapsed.Seconds()))
	st := sb.Srv.Stats()
	rep.Set("serve.admission_ms_p99", st.Admission.P99ms, fmt.Sprintf("server histogram, n=%d", st.Admission.Count))
	rep.Set("serve.queue_wait_ms_p99", st.QueueWait.P99ms, fmt.Sprintf("server histogram, n=%d", st.QueueWait.Count))
	rep.Set("serve.service_ms_p99", st.Service.P99ms, fmt.Sprintf("server histogram, n=%d", st.Service.Count))
	rep.Set("serve.e2e_server_ms_p99", st.E2E.P99ms, fmt.Sprintf("server histogram, n=%d", st.E2E.Count))
	bad := sb.CheckServed()
	rep.Check("served_equals_estimate", len(bad) == 0, fmt.Sprintf("%d of %d nodes differ %v", len(bad), len(names), bad))
	return codecLayers(rep, spans, sb.Replayed())
}

// codecLayers times perfctr's wire encode and decode per sample on the
// samples serveLayers replayed, in its batch size, for at least 200 ms
// each.
func codecLayers(rep *bench.Report, spans *bench.Spans, samples []perfctr.Sample) error {
	var batches [][]perfctr.Sample
	for i := 0; i+bench.Batch <= len(samples); i += bench.Batch {
		batches = append(batches, samples[i:i+bench.Batch])
	}
	if len(batches) == 0 {
		return fmt.Errorf("%d samples make no batch of %d", len(samples), bench.Batch)
	}
	trace := spans.NewTrace()
	payloads := make([][]byte, len(batches))
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 200*time.Millisecond {
		for i, b := range batches {
			var err error
			if payloads[i], err = perfctr.EncodeBatch(payloads[i][:0], "node", b); err != nil {
				return err
			}
		}
		n += len(batches) * bench.Batch
	}
	t1 := time.Now()
	spans.Record("perfctr.encode", trace, 0, t0, t1)
	rep.Set("perfctr.encode_ns", float64(t1.Sub(t0).Nanoseconds())/float64(n), fmt.Sprintf("%d samples", n))
	n = 0
	for time.Since(t1) < 200*time.Millisecond {
		for _, p := range payloads {
			if _, _, _, _, err := perfctr.DecodeBatchFull(p); err != nil {
				return err
			}
		}
		n += len(payloads) * bench.Batch
	}
	t2 := time.Now()
	spans.Record("perfctr.decode", trace, 0, t1, t2)
	rep.Set("perfctr.decode_ns", float64(t2.Sub(t1).Nanoseconds())/float64(n), fmt.Sprintf("%d samples", n))
	return nil
}
