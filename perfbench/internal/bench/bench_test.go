package bench

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func loadBenchmark(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	return b
}

// printedMetrics runs a report over defs with every metric set and
// returns what it printed: the "metric" lines and the result object.
func printedMetrics(t *testing.T, defs []Def) (lines map[string][2]string, result jsonResult) {
	t.Helper()
	rep := NewReport(Args{Workload: "node-busy", Seed: 1, Seconds: 1}, false, defs)
	for i, d := range defs {
		rep.Set(d.Name, float64(i+1), "")
	}
	rep.Check("always", true, "")
	var out bytes.Buffer
	if err := rep.Print(&out); err != nil {
		t.Fatal(err)
	}
	lines = map[string][2]string{}
	var last string
	sc := bufio.NewScanner(&out)
	for sc.Scan() {
		last = sc.Text()
		if f := strings.Fields(last); len(f) >= 4 && f[0] == "metric" {
			lines[f[1]] = [2]string{f[2], f[3]}
		}
	}
	if err := json.Unmarshal([]byte(last), &result); err != nil {
		t.Fatalf("last line %q: %v", last, err)
	}
	return lines, result
}

// TestPrintedMetricsAreDeclared requires every metric either run prints,
// as a report line or in the result object, to appear in BENCHMARK.json
// with the same unit and a direction, and every declared metric to be
// printed.
func TestPrintedMetricsAreDeclared(t *testing.T) {
	b := loadBenchmark(t)
	declared := map[string]Def{}
	var e2e, layer []string
	for _, m := range b.EndToEnd {
		declared[m.Name] = Def{m.Name, m.Unit, m.Better}
		e2e = append(e2e, m.Name)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range b.PerLayer {
		if _, dup := declared[m.Name]; dup {
			t.Errorf("%s declared twice", m.Name)
		}
		declared[m.Name] = Def{m.Name, m.Unit, m.Better}
		layer = append(layer, m.Name)
	}
	for _, run := range []struct {
		defs []Def
		want []string
	}{{EndToEnd, e2e}, {PerLayer, layer}} {
		lines, result := printedMetrics(t, run.defs)
		if len(lines) != len(run.want) || len(result.Metrics) != len(run.want) {
			t.Errorf("printed %d lines and %d result metrics, BENCHMARK.json declares %d", len(lines), len(result.Metrics), len(run.want))
		}
		for name, lu := range lines {
			d, ok := declared[name]
			switch {
			case !ok:
				t.Errorf("printed metric %s is not in BENCHMARK.json", name)
			case d.Unit != lu[1] || result.Metrics[name].Unit != d.Unit:
				t.Errorf("%s printed in %s / %s, declared in %s", name, lu[1], result.Metrics[name].Unit, d.Unit)
			case d.Better != "lower" && d.Better != "higher":
				t.Errorf("%s has direction %q", name, d.Better)
			}
		}
		for _, name := range run.want {
			if _, ok := result.Metrics[name]; !ok {
				t.Errorf("declared metric %s is not printed", name)
			}
		}
	}
	for i, d := range EndToEnd {
		if i >= len(b.EndToEnd) || b.EndToEnd[i].Unit != d.Unit || b.EndToEnd[i].Better != d.Better {
			t.Errorf("end_to_end[%d] does not match %+v", i, d)
		}
	}
	for i, d := range PerLayer {
		if i >= len(b.PerLayer) || (Def{b.PerLayer[i].Name, b.PerLayer[i].Unit, b.PerLayer[i].Better}) != d {
			t.Errorf("per_layer[%d] does not match %+v", i, d)
		}
	}
	if len(b.Workloads) != len(Workloads) {
		t.Fatalf("%d workloads declared, %d run", len(b.Workloads), len(Workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != Workloads[i] || w.Why == "" {
			t.Errorf("workload %d: %q", i, w.Name)
		}
	}
}

// TestLayerMapNamesExist keeps layers.json's map and predictions in step
// with the metric tables.
func TestLayerMapNamesExist(t *testing.T) {
	raw, err := os.ReadFile("../../layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		Map []struct {
			Layers []string `json:"layers"`
			Moves  []string `json:"moves"`
			On     []string `json:"on"`
		} `json:"layer_to_end_to_end"`
		Predictions []struct {
			Raises []struct{ Metric, On string } `json:"raises"`
			Flat   []struct{ Metric, On string } `json:"flat"`
		} `json:"predictions"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	has := func(defs []Def, name string) bool {
		for _, d := range defs {
			if d.Name == name {
				return true
			}
		}
		return false
	}
	isWorkload := func(name string) bool {
		for _, w := range Workloads {
			if w == name {
				return true
			}
		}
		return false
	}
	covered := map[string]bool{}
	for _, row := range m.Map {
		for _, l := range row.Layers {
			covered[l] = true
			if !has(PerLayer, l) {
				t.Errorf("layer metric %s is not declared", l)
			}
		}
		for _, e := range row.Moves {
			if !has(EndToEnd, e) {
				t.Errorf("end-to-end metric %s is not declared", e)
			}
		}
		for _, w := range row.On {
			if !isWorkload(w) {
				t.Errorf("workload %s does not exist", w)
			}
		}
	}
	for _, d := range PerLayer {
		if !covered[d.Name] {
			t.Errorf("layer metric %s has no row in the map", d.Name)
		}
	}
	for _, p := range m.Predictions {
		for _, r := range append(p.Raises, p.Flat...) {
			if !(has(EndToEnd, r.Metric) || has(PerLayer, r.Metric)) || !isWorkload(r.On) {
				t.Errorf("prediction on %s/%s names an unknown metric or workload", r.Metric, r.On)
			}
		}
	}
	if len(m.Workloads) != len(Workloads) {
		t.Errorf("layers.json describes %d workloads, want %d", len(m.Workloads), len(Workloads))
	}
}

// TestTailQuantile checks that the tail reported is the highest
// percentile with at least ten samples beyond its nearest rank.
func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := TailQuantile(c.n); got != c.want {
			t.Errorf("TailQuantile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	// Nearest rank: p90 of 1..100 is 90, leaving ten samples beyond it.
	var d Dist
	for i := 100; i >= 1; i-- {
		d = append(d, float64(i))
	}
	if got := d.Q(0.9); got != 90 {
		t.Errorf("p90 of 1..100 = %g, want 90", got)
	}
	if s := d.Summary(); !strings.Contains(s, "n=100") || !strings.Contains(s, "p90=90") || strings.Contains(s, "p99") {
		t.Errorf("summary %q should state n and the p90 tail only", s)
	}
}

func TestWindowRates(t *testing.T) {
	// Two-operation windows of 100+100 ms and 200+200 ms run at 10/s and
	// 5/s; the trailing partial window is dropped.
	got := WindowRates(1, Dist{100, 100, 200, 200, 50}, 2)
	if len(got) != 2 || got[0] != 10 || got[1] != 5 {
		t.Fatalf("rates %v, want [10 5]", got)
	}
}

func TestParseArgs(t *testing.T) {
	a, err := ParseArgs("t", []string{"--workload", "fleet-idle-io", "--seed", "7", "--seconds", "3"})
	if err != nil || a.Workload != "fleet-idle-io" || a.Seed != 7 || a.Seconds != 3 {
		t.Fatalf("%+v, %v", a, err)
	}
	for _, bad := range [][]string{
		{"--workload", "nope"},
		{"--workload", "node-busy", "--trace", "1"},
		{"--workload", "node-busy", "--seconds", "0"},
	} {
		if _, err := ParseArgs("t", bad); err == nil {
			t.Errorf("%v accepted", bad)
		}
	}
}

func TestReportFailsOnUnsetMetricOrCheck(t *testing.T) {
	rep := NewReport(Args{Workload: "node-busy"}, false, EndToEnd)
	var out bytes.Buffer
	if err := rep.Print(&out); err == nil {
		t.Fatal("printed a result with no metrics set")
	}
	rep = NewReport(Args{Workload: "node-busy"}, false, EndToEnd[:1])
	rep.Set(EndToEnd[0].Name, 1, "")
	rep.Check("broken", false, "detail")
	out.Reset()
	if err := rep.Print(&out); err != nil {
		t.Fatal(err)
	}
	if rep.Correct() || !strings.Contains(out.String(), `"correct":false`) {
		t.Fatalf("failed check not reported:\n%s", out.String())
	}
}

func TestSpansSelfTime(t *testing.T) {
	s := NewSpans(10)
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := s.NewTrace()
	p := s.Record("parent", tr, 0, at(0), at(10))
	s.Record("a", tr, p, at(1), at(4))
	s.Record("b", tr, p, at(4), at(6))
	self := s.SelfNs()
	if got, want := self["parent"], int64(5*time.Millisecond); got != want {
		t.Errorf("parent self %d, want %d", got, want)
	}
	if self["a"] != int64(3*time.Millisecond) || self["b"] != int64(2*time.Millisecond) {
		t.Errorf("child self times %v", self)
	}
	var nilSpans *Spans
	if nilSpans.Record("x", 0, 0, t0, t0) != 0 || nilSpans.NewTrace() != 0 {
		t.Error("nil recorder recorded")
	}
}
