package bench

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"trickledown/internal/align"
	"trickledown/internal/core"
	"trickledown/internal/perfctr"
	"trickledown/internal/power"
	"trickledown/internal/serve"
)

// The serving load's shape. Rates are offered counter samples per second;
// each ingest request carries Batch samples of one node, a minute of a
// 1 Hz agent's samples.
const (
	Batch = 64
	// ReplayRows is how many of each node's newest rows its stream
	// replays.
	ReplayRows = 64
	// ReadEvery schedules one /fleet or /power read per ReadEvery ingest
	// requests.
	ReadEvery = 4
	// RefRate is the fixed ladder rate whose ack and visible latencies
	// the serve.ack_ms_* and serve.visible_ms_p99 metrics report, so they
	// compare across changes at the same offered load. It is far below
	// the peak, where a slower host stretches each request without also
	// queueing it behind others.
	RefRate = 16000
	// VisibleLimitMs is the limit on visible_ms_p99 a ladder rate must
	// meet to count toward slo_samples_per_s. It lies above the 15-30 ms
	// stalls a shared 2-vCPU host puts into even the lightest rate, so
	// the knee the ladder finds is the server's, not the host's.
	VisibleLimitMs = 50
)

// PeakFractions place the ladder's other rates at shares of the measured
// unpaced peak, up to past it, so the knee falls inside the ladder
// however fast the server gets.
var PeakFractions = []float64{0.25, 0.5, 0.75, 1, 1.25}

// stream replays one recorded node under one node name, shifting the
// target clock by span on every wrap so timestamps keep rising.
type stream struct {
	name  string
	rows  []perfctr.Sample
	span  float64 // the last recorded timestamp plus one second
	pos   int
	cycle int
	last  perfctr.Sample // newest sample handed out
}

func (s *stream) next(n int) []perfctr.Sample {
	out := make([]perfctr.Sample, n)
	for i := range out {
		smp := s.rows[s.pos]
		smp.TargetSeconds += float64(s.cycle) * s.span
		out[i] = smp
		s.pos++
		if s.pos == len(s.rows) {
			s.pos = 0
			s.cycle++
		}
	}
	s.last = out[n-1]
	return out
}

// ServeBench is tdserve running in-process behind a loopback HTTP
// listener, with the replay streams that feed it.
type ServeBench struct {
	Est     *core.Estimator
	Srv     *serve.Server
	Spans   *Spans
	hs      *http.Server
	served  chan error
	base    string
	client  *http.Client
	streams []*stream
	rr      int
}

// StartServe starts tdserve on a loopback listener and prepares one
// replay stream per node name over the newest ReplayRows of that node's
// rows.
func StartServe(est *core.Estimator, names []string, rows [][]align.Row) (*ServeBench, error) {
	srv, err := serve.New(serve.Config{Estimator: est, SlowTrace: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv.Start()
	conns := runtime.GOMAXPROCS(0)
	b := &ServeBench{
		Est:    est,
		Srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		served: make(chan error, 1),
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 10 * time.Second, Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		}},
	}
	go func() { b.served <- b.hs.Serve(ln) }()
	for i, name := range names {
		rs := rows[i]
		if len(rs) == 0 {
			b.Close()
			return nil, fmt.Errorf("node %s has no rows", name)
		}
		if len(rs) > ReplayRows {
			rs = rs[len(rs)-ReplayRows:]
		}
		samples := make([]perfctr.Sample, len(rs))
		for j := range rs {
			samples[j] = rs[j].Counters
		}
		b.streams = append(b.streams, &stream{
			name: name,
			rows: samples,
			span: samples[len(samples)-1].TargetSeconds + 1,
		})
	}
	return b, nil
}

// Replayed returns the samples every stream replays, stream after
// stream.
func (b *ServeBench) Replayed() []perfctr.Sample {
	var out []perfctr.Sample
	for _, st := range b.streams {
		out = append(out, st.rows...)
	}
	return out
}

// Close stops the listener and the estimation workers and waits for
// both.
func (b *ServeBench) Close() error {
	b.client.CloseIdleConnections()
	err := b.hs.Close()
	if serr := <-b.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return errors.Join(err, b.Srv.Close(ctx))
}

// job is one scheduled request: an ingest batch, or a read when samples
// is nil.
type job struct {
	due     time.Time
	st      *stream
	samples []perfctr.Sample
	read    string
}

// StepResult is what one ladder rate (or the peak phase) measured.
type StepResult struct {
	Rate       float64
	Sent       int
	OK         int
	Failed     int
	Reads      int
	ReadFailed int
	Ack        Dist // ms from due to the 202
	Visible    Dist // ms from due to the estimate readable via NodePower
	Read       Dist // ms from due to the read's reply
	Lag        Dist // ms the generator dispatched each request late
	Backlog    int  // requests still waiting for a connection when the last was due
	QueueMax   int  // deepest server ingest queue seen
	Shed       uint64
	NonFinite  uint64
	Samples    uint64 // samples estimated by the server during the phase
	Elapsed    time.Duration
}

// Throughput returns the samples the server estimated per second of the
// phase.
func (r StepResult) Throughput() float64 { return float64(r.Samples) / r.Elapsed.Seconds() }

// nextJob takes the next batch round-robin over the streams.
func (b *ServeBench) nextJob(due time.Time) job {
	st := b.streams[b.rr%len(b.streams)]
	b.rr++
	return job{due: due, st: st, samples: st.next(Batch)}
}

// visibility is an acknowledged batch waiting to become readable.
type visibility struct {
	due   time.Time
	name  string
	lastT float64
}

// OpenLoop offers rate samples/s for d on at most GOMAXPROCS
// connections. Requests are due on a fixed schedule whatever the server
// does, and every latency is timed from when its request was due.
func (b *ServeBench) OpenLoop(ctx context.Context, rate float64, d time.Duration) StepResult {
	res := StepResult{Rate: rate}
	interval := time.Duration(float64(Batch) / rate * float64(time.Second))
	n := int(d / interval)
	before := b.Srv.Stats()
	// Buffered to the number of sends, so the dispatcher never blocks and
	// a slow server shows up as backlog, not as a slower schedule.
	jobs := make(chan job, n+n/ReadEvery+1)
	vis := make(chan visibility, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for j := range jobs {
				if j.samples == nil {
					at, ok := b.read(j.read)
					mu.Lock()
					res.Reads++
					if ok {
						res.Read = append(res.Read, Ms(at.Sub(j.due)))
					} else {
						res.ReadFailed++
					}
					mu.Unlock()
					continue
				}
				var at time.Time
				var ok bool
				at, ok, buf = b.send(j, buf)
				mu.Lock()
				res.Sent++
				if ok {
					res.OK++
					res.Ack = append(res.Ack, Ms(at.Sub(j.due)))
				} else {
					res.Failed++
				}
				mu.Unlock()
				if ok {
					vis <- visibility{due: j.due, name: j.st.name, lastT: j.samples[len(j.samples)-1].TargetSeconds}
				}
			}
		}()
	}
	visDone := make(chan struct{})
	go func() {
		defer close(visDone)
		b.watchVisible(&res, &mu, vis)
	}()
	stopMon := make(chan struct{})
	monDone := make(chan struct{})
	go func() {
		defer close(monDone)
		b.monitorQueue(&res, &mu, stopMon)
	}()

	start := time.Now()
	for k := 0; k < n && ctx.Err() == nil; k++ {
		due := start.Add(time.Duration(k) * interval)
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		lag := time.Since(due)
		mu.Lock()
		res.Lag = append(res.Lag, Ms(lag))
		mu.Unlock()
		jobs <- b.nextJob(due)
		if k%ReadEvery == ReadEvery-1 {
			read := "/fleet"
			if k/ReadEvery%2 == 1 {
				read = "/power?node=" + b.streams[k%len(b.streams)].name
			}
			jobs <- job{due: due, read: read}
		}
	}
	res.Backlog = len(jobs)
	close(jobs)
	wg.Wait()
	close(vis)
	<-visDone
	close(stopMon)
	<-monDone
	res.Elapsed = time.Since(start)
	after := b.Srv.Stats()
	res.Shed = after.SamplesShed - before.SamplesShed
	res.NonFinite = after.NonFinite - before.NonFinite
	res.Samples = after.SamplesEstimated - before.SamplesEstimated
	return res
}

// send encodes one batch into buf and posts it on the calling worker's
// connection. It returns when the reply arrived, whether it was a 202,
// and the buffer for reuse.
func (b *ServeBench) send(j job, buf []byte) (time.Time, bool, []byte) {
	trace := b.Spans.NewTrace()
	t0 := time.Now()
	buf, err := perfctr.EncodeBatch(buf[:0], j.st.name, j.samples)
	t1 := time.Now()
	ok := err == nil && b.post(buf)
	t2 := time.Now()
	b.Spans.Record("perfctr.encode", trace, 0, t0, t1)
	b.Spans.Record("serve.ingest", trace, 0, t1, t2)
	return t2, ok, buf
}

// read issues one read on the calling worker's connection and returns
// when the reply arrived and whether it was a 200.
func (b *ServeBench) read(path string) (time.Time, bool) {
	t0 := time.Now()
	ok := b.get(path)
	t1 := time.Now()
	b.Spans.Record("serve.read", b.Spans.NewTrace(), 0, t0, t1)
	return t1, ok
}

// post sends one encoded batch and reports whether it was accepted.
func (b *ServeBench) post(body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, b.base+"/ingest", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("X-Client-ID", "perfbench")
	resp, err := b.client.Do(req)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // drained so the connection is reused
	resp.Body.Close()
	return resp.StatusCode == http.StatusAccepted
}

// get issues one read and reports whether it answered 200.
func (b *ServeBench) get(path string) bool {
	resp, err := b.client.Get(b.base + path)
	if err != nil {
		return false
	}
	_, _ = io.Copy(io.Discard, resp.Body) // the body is the read's cost
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// watchVisible polls NodePower for each acknowledged batch until its
// estimate is readable. The moment it became readable is the node's
// last update, now minus AgeSeconds, so the poll interval does not
// enter the measurement. When a later batch of the same node has
// already landed, the read time is used: an upper bound. A batch still
// unreadable after visibleTimeout fails.
func (b *ServeBench) watchVisible(res *StepResult, mu *sync.Mutex, vis <-chan visibility) {
	for v := range vis {
		for {
			np, ok := b.Srv.NodePower(v.name)
			now := time.Now()
			if ok && np.LastTargetSeconds >= v.lastT {
				at := now
				if np.LastTargetSeconds == v.lastT {
					at = now.Add(-time.Duration(np.AgeSeconds * float64(time.Second)))
				}
				mu.Lock()
				res.Visible = append(res.Visible, Ms(at.Sub(v.due)))
				mu.Unlock()
				break
			}
			if now.Sub(v.due) > visibleTimeout {
				mu.Lock()
				res.Failed++
				mu.Unlock()
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// visibleTimeout bounds the wait for an acknowledged batch's estimate.
const visibleTimeout = 5 * time.Second

// monitorQueue samples the server's ingest queue depth every
// millisecond until stop closes.
func (b *ServeBench) monitorQueue(res *StepResult, mu *sync.Mutex, stop <-chan struct{}) {
	t := time.NewTicker(time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			d := b.Srv.QueueDepth()
			mu.Lock()
			if d > res.QueueMax {
				res.QueueMax = d
			}
			mu.Unlock()
		}
	}
}

// ClosedLoop runs GOMAXPROCS unpaced clients, each sending its next
// batch as soon as the previous is acknowledged, for d, and waits until
// the server has estimated everything accepted.
func (b *ServeBench) ClosedLoop(ctx context.Context, d time.Duration) StepResult {
	var res StepResult
	before := b.Srv.Stats()
	start := time.Now()
	deadline := start.Add(d)
	var mu sync.Mutex // guards res and the streams
	var wg sync.WaitGroup
	for c := 0; c < runtime.GOMAXPROCS(0); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for ctx.Err() == nil && time.Now().Before(deadline) {
				mu.Lock()
				j := b.nextJob(time.Now())
				mu.Unlock()
				var ok bool
				_, ok, buf = b.send(j, buf)
				mu.Lock()
				res.Sent++
				if ok {
					res.OK++
				} else {
					res.Failed++
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	want := before.SamplesEstimated + uint64(res.OK*Batch)
	for b.Srv.Stats().SamplesEstimated < want && ctx.Err() == nil {
		time.Sleep(100 * time.Microsecond)
	}
	res.Elapsed = time.Since(start)
	after := b.Srv.Stats()
	res.Samples = after.SamplesEstimated - before.SamplesEstimated
	res.Shed = after.SamplesShed - before.SamplesShed
	res.NonFinite = after.NonFinite - before.NonFinite
	return res
}

// Drain waits until every ingested sample has been estimated.
func (b *ServeBench) Drain(ctx context.Context) error {
	for {
		st := b.Srv.Stats()
		if st.SamplesEstimated+st.SamplesShed >= st.SamplesIngested && st.QueueDepth == 0 {
			return nil
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// CheckServed compares every node's served estimate with core.Estimate
// applied directly to the newest sample sent for it, rail by rail, and
// returns the names that differ.
func (b *ServeBench) CheckServed() []string {
	var bad []string
	for _, st := range b.streams {
		np, ok := b.Srv.NodePower(st.name)
		if !ok {
			bad = append(bad, st.name+" (unknown)")
			continue
		}
		want := b.Est.Estimate(&st.last)
		same := np.LastTargetSeconds == st.last.TargetSeconds
		for _, sub := range power.Subsystems() {
			if np.Power[sub.String()] != want[sub] {
				same = false
			}
		}
		if !same {
			bad = append(bad, st.name)
		}
	}
	return bad
}

// Meets reports whether a ladder rate met the service objective: every
// request succeeded, nothing was shed, the visible p99 stayed within
// VisibleLimitMs, and the backlog the schedule left behind was no more
// than the rate offers in VisibleLimitMs, so the queue did not grow.
func (r StepResult) Meets() bool {
	return r.Failed == 0 && r.ReadFailed == 0 && r.Shed == 0 && r.NonFinite == 0 &&
		len(r.Visible) > 0 && r.Visible.Q(0.99) <= VisibleLimitMs &&
		float64(r.Backlog*Batch)/r.Rate*1e3 <= VisibleLimitMs
}

// Row renders a ladder step for the report.
func (r StepResult) Row(phase string) string {
	return fmt.Sprintf("%s rate=%.0f sent=%d ok=%d failed=%d reads=%d read_failed=%d backlog=%d queue_max=%d shed=%d estimated=%d elapsed_s=%.3f | ack_ms %s | visible_ms %s | read_ms %s | gen_lag_ms %s",
		phase, r.Rate, r.Sent, r.OK, r.Failed, r.Reads, r.ReadFailed, r.Backlog, r.QueueMax, r.Shed, r.Samples, r.Elapsed.Seconds(),
		r.Ack.Summary(), r.Visible.Summary(), r.Read.Summary(), r.Lag.Summary())
}

// RunServePhases measures the unpaced peak for three tenths of d, then
// runs the open-loop ladder in rising order: RefRate for two fifths of d
// and each PeakFractions share of the measured peak for an equal part
// of the rest.
func RunServePhases(ctx context.Context, b *ServeBench, d time.Duration) ([]StepResult, StepResult) {
	peak := b.ClosedLoop(ctx, d*3/10)
	rates := []float64{RefRate}
	for _, f := range PeakFractions {
		// Whole thousands keep the rates readable in the report.
		if r := math.Round(f*peak.Throughput()/1000) * 1000; r > 0 && r != RefRate {
			rates = append(rates, r)
		}
	}
	sort.Float64s(rates)
	var ladder []StepResult
	for _, rate := range rates {
		step := d * 3 / 10 / time.Duration(len(PeakFractions))
		if rate == RefRate {
			step = d * 2 / 5
		}
		ladder = append(ladder, b.OpenLoop(ctx, rate, step))
	}
	return ladder, peak
}
