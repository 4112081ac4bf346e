package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"trickledown/internal/power"
)

// trainOpts is a small-scale training configuration (every run at the
// 30-second floor).
func trainOpts(workers int) Options {
	return Options{Seed: 100, TrainSeed: 10, Scale: 0.02, Workers: workers}
}

// TestTrainingIdenticalAcrossWorkers: running the training corpus
// concurrently changes nothing about the fit — every coefficient is
// bit-identical to the serial run's, and so is the corpus fingerprint.
func TestTrainingIdenticalAcrossWorkers(t *testing.T) {
	serial, err := NewRunner(trainOpts(1)).Estimator()
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := NewRunner(trainOpts(4)).Estimator()
	if err != nil {
		t.Fatal(err)
	}
	for _, sub := range power.Subsystems() {
		a, b := serial.Model(sub).Coef, parallel.Model(sub).Coef
		if len(a) != len(b) {
			t.Fatalf("%s: %d vs %d coefficients", sub, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Errorf("%s coef %d: workers=1 %v, workers=4 %v", sub, i, a[i], b[i])
			}
		}
	}
	if a, b := serial.Provenance().Fingerprint, parallel.Provenance().Fingerprint; a != b {
		t.Errorf("fingerprint: workers=1 %s, workers=4 %s", a, b)
	}
}

// TestEstimatorInsidePoolTask: the first Estimator call can come from a
// task on the runner's own pool (modelErrors does this). With one worker
// that task holds the pool's only slot, so training must not queue on
// the same pool. Meaningful under -race as well.
func TestEstimatorInsidePoolTask(t *testing.T) {
	r := NewRunner(trainOpts(1))
	done := make(chan error, 1)
	go func() {
		done <- r.p.Run(context.Background(), 1, func(context.Context, int) error {
			_, err := r.Estimator()
			return err
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("Estimator deadlocked inside a pool task")
	}
}

// TestTrainingErrorOrder: when corpus runs fail, training reports the
// first failure in gcc, mcf, diskload order, however the concurrent
// runs finish.
func TestTrainingErrorOrder(t *testing.T) {
	for _, tc := range []struct {
		fail []string
		want string
	}{
		{[]string{"diskload"}, "diskload"},
		{[]string{"mcf", "diskload"}, "mcf"},
		{[]string{"diskload", "mcf", "gcc"}, "gcc"},
	} {
		r := NewRunner(trainOpts(4))
		r.failDataset = func(wl string) error {
			for _, f := range tc.fail {
				if wl == f {
					return fmt.Errorf("injected: %s run lost", wl)
				}
			}
			return nil
		}
		_, err := r.Estimator()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("failing %v: err = %v, want the %s failure", tc.fail, err, tc.want)
		}
	}
}
