package disk

import (
	"fmt"
	"testing"

	"trickledown/internal/sim"
)

// pop starts the next queued request and returns it, the way Step does
// when the spindle frees up.
func pop(d *Disk) Request {
	d.start()
	d.busy = false
	return d.cur.req
}

// TestQueueFIFOAcrossWrapAndRefill drives the queue through every
// reclaim path (slide-down on a full array, growth, drain to empty and
// refill) against a plain slice model: requests come out in submission
// order and QueueLen always matches.
func TestQueueFIFOAcrossWrapAndRefill(t *testing.T) {
	d := NewDisk(sim.NewRNG(20))
	var model []Request
	next := 1.0
	submit := func(n int) {
		for i := 0; i < n; i++ {
			r := Request{Bytes: next, Sequential: int(next)%3 == 0}
			next++
			d.Submit(r)
			model = append(model, r)
		}
	}
	drain := func(n int) {
		for i := 0; i < n && len(model) > 0; i++ {
			if got := pop(d); got != model[0] {
				t.Fatalf("popped %+v, want %+v", got, model[0])
			}
			model = model[1:]
		}
	}
	// Uneven submit/pop rounds walk head across the array's end many
	// times, both with and without a reclaimable prefix.
	for round := 0; round < 200; round++ {
		submit(1 + round%7)
		drain(1 + round%5)
		if d.QueueLen() != len(model) {
			t.Fatalf("round %d: QueueLen = %d, want %d", round, d.QueueLen(), len(model))
		}
		if round%50 == 49 {
			drain(len(model))
			if d.QueueLen() != 0 || d.head != 0 {
				t.Fatalf("round %d: drained queue has QueueLen %d, head %d", round, d.QueueLen(), d.head)
			}
		}
	}
	drain(len(model))
	if d.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after full drain", d.QueueLen())
	}
	// Refill after the drain: order restarts cleanly.
	submit(queueKeep + 3)
	drain(len(model))
}

// TestQueueReleasesBurstArray: a start-up burst's backing array is
// dropped once the burst drains, while a small queue keeps its array for
// reuse.
func TestQueueReleasesBurstArray(t *testing.T) {
	d := NewDisk(sim.NewRNG(21))
	for i := 0; i < 5000; i++ {
		d.Submit(Request{Bytes: 4096, Sequential: true})
	}
	if cap(d.queue) < 5000 {
		t.Fatalf("burst cap = %d", cap(d.queue))
	}
	for i := 0; i < 100000 && (d.busy || d.QueueLen() > 0); i++ {
		d.Step(slice)
	}
	if d.QueueLen() != 0 {
		t.Fatalf("burst never drained: %d left", d.QueueLen())
	}
	if d.queue != nil {
		t.Errorf("drained burst still holds a %d-request array", cap(d.queue))
	}

	for i := 0; i < 8; i++ {
		d.Submit(Request{Bytes: 4096, Sequential: true})
	}
	for i := 0; i < 1000 && (d.busy || d.QueueLen() > 0); i++ {
		d.Step(slice)
	}
	if cap(d.queue) == 0 {
		t.Error("small drained queue released its array; refill will allocate")
	}
}

// TestSteadyQueueAllocatesNothing: once the array is sized, a disk kept
// at small depth — and one that repeatedly drains and refills — submits
// and steps without allocating.
func TestSteadyQueueAllocatesNothing(t *testing.T) {
	d := NewDisk(sim.NewRNG(22))
	// AllocsPerRun calls f once to warm up, then reports the exact
	// allocation count of the single measured call.
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 20000; i++ {
			if d.QueueLen() < 4 {
				d.Submit(Request{Bytes: 8192})
			}
			d.Step(slice)
		}
		for burst := 0; burst < 20; burst++ {
			for i := 0; i < 16; i++ {
				d.Submit(Request{Bytes: 4096, Sequential: true})
			}
			for i := 0; i < 1000 && (d.busy || d.QueueLen() > 0); i++ {
				d.Step(slice)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("steady submit/step loop allocated %v times", allocs)
	}
}

// BenchmarkDiskBurst queues a burst and steps the disk until it drains.
// The per-request cost (ns/req) stays flat as the burst grows: dequeue
// is O(1), so draining n requests costs O(n), not O(n²).
func BenchmarkDiskBurst(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			d := NewDisk(sim.NewRNG(23))
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				for i := 0; i < n; i++ {
					d.Submit(Request{Bytes: 4096, Sequential: true})
				}
				for d.busy || d.QueueLen() > 0 {
					d.Step(slice)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/req")
		})
	}
}
