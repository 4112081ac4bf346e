package stageloop

import (
	"testing"

	"trickledown/internal/align"
	"trickledown/internal/machine"
	"trickledown/internal/workload"
	"trickledown/perfbench/internal/bench"
)

// TestFingerprintMatchesServer runs the copy and machine.Server side by
// side on a short horizon and requires bit-identical datasets, for the
// busy mix and for each fleet kind (idle and I/O paths included).
func TestFingerprintMatchesServer(t *testing.T) {
	nodes, err := bench.FleetSpec(7)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range nodes[:4] {
		t.Run(n.Name, func(t *testing.T) {
			srv, err := machine.NewMixed(n.Cfg, n.Placements)
			if err != nil {
				t.Fatal(err)
			}
			m, err := New(n.Cfg, n.Placements)
			if err != nil {
				t.Fatal(err)
			}
			const seconds = 6
			srv.Run(seconds)
			// Stepping in uneven chunks must not matter.
			m.Run(2.5)
			m.Run(seconds - 2.5)
			want, err := srv.Dataset()
			if err != nil {
				t.Fatal(err)
			}
			got, err := m.Dataset()
			if err != nil {
				t.Fatal(err)
			}
			if want.Len() < seconds-1 {
				t.Fatalf("server sampled %d rows in %ds", want.Len(), seconds)
			}
			if g, w := align.Fingerprint(got), align.Fingerprint(want); g != w {
				t.Fatalf("fingerprint %s, machine.Server %s", g, w)
			}
			if m.Slices != seconds*1000 {
				t.Fatalf("stepped %d slices, want %d", m.Slices, seconds*1000)
			}
			for i, ns := range m.StageNs {
				if ns <= 0 {
					t.Errorf("stage %s timed %d ns", bench.StageNames[i], ns)
				}
			}
		})
	}
}

// TestRejectsUnsupported keeps the copy from silently diverging on
// configurations it does not reproduce.
func TestRejectsUnsupported(t *testing.T) {
	cfg := machine.DefaultConfig()
	inline := bench.BusyPlacements()
	spec, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	inline[0].Spec = &spec
	if _, err := New(cfg, inline); err == nil {
		t.Fatal("inline spec accepted")
	}
	if _, err := New(cfg, nil); err == nil {
		t.Fatal("empty placement list accepted")
	}
}
