package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"sea/internal/matio"
	"sea/internal/metrics"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
	seahttp "sea/pkg/sea/serve/http"
)

const (
	httpClients  = 2  // closed-loop clients, one connection each
	httpPerOrder = 8  // distinct priors per order
	decodeReps   = 20 // timed decodes and encodes of each body
)

var httpOrders = []int{16, 24, 32}

// httpSmall is a closed loop of httpClients clients POSTing pre-encoded
// /v1/solve bodies over loopback to a seahttp handler on a one-shard
// serve.ShardedServer; each client waits for its reply before sending again.
type httpSmall struct {
	bodies [][]byte
	probs  []*sea.DiagonalProblem // bodies decoded in process
	refs   []*sea.Solution        // their in-process solves
	opts   *sea.Options
	client *http.Client
	cursor atomic.Uint64
	srv    *serve.ShardedServer
	front  *frontEnd
}

func newHTTPSmall(seed uint64) (*httpSmall, error) {
	bodies, err := httpCorpus(seed, httpOrders, httpPerOrder)
	if err != nil {
		return nil, err
	}
	o := sea.DefaultOptions()
	o.Criterion = sea.MaxAbsDelta
	o.Epsilon = 0.01
	w := &httpSmall{bodies: bodies, opts: o}
	for i, b := range bodies {
		d, err := matio.ReadProblemJSON(bytes.NewReader(b))
		if err != nil {
			return nil, fmt.Errorf("decode body %d: %w", i, err)
		}
		p, err := sea.NewDiagonal(d)
		if err != nil {
			return nil, fmt.Errorf("body %d: %w", i, err)
		}
		sol, err := sea.Solve(context.Background(), "sea", p, o)
		if err != nil {
			return nil, fmt.Errorf("solve body %d: %w", i, err)
		}
		w.probs = append(w.probs, d)
		w.refs = append(w.refs, sol)
	}
	return w, nil
}

func (w *httpSmall) digest() string { return bodiesDigest(w.bodies) }

// frontEnd is a seahttp handler served on a loopback listener.
type frontEnd struct {
	handler *seahttp.Handler
	server  *http.Server
	served  chan struct{}
	url     string
}

func startFrontEnd(b seahttp.Backend) (*frontEnd, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &frontEnd{
		handler: seahttp.New(b, seahttp.Config{}),
		served:  make(chan struct{}),
		url:     "http://" + ln.Addr().String() + "/v1/solve",
	}
	f.server = &http.Server{Handler: f.handler}
	go func() {
		defer close(f.served)
		_ = f.server.Serve(ln) // always ErrServerClosed once close runs
	}()
	return f, nil
}

// close stops the listener and its connections, waits for Serve to return,
// then drains the handler.
func (f *frontEnd) close() {
	_ = f.server.Close() // only reports the listener's close error
	<-f.served
	f.handler.Close()
}

// setup starts the server and its front end, provisions every shape's pool
// to the in-flight bound, and sends every body once from each client.
func (w *httpSmall) setup(ctx context.Context) error {
	srv, err := serve.NewSharded(serve.ShardedConfig{
		Shards: 1,
		Server: serve.Config{Solver: "sea", MaxInFlight: httpClients, MaxShapes: len(httpOrders), Options: w.opts},
	})
	if err != nil {
		return err
	}
	w.srv = srv
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: httpClients}}
	if w.front, err = startFrontEnd(srv); err != nil {
		return err
	}
	for i := 0; i < len(w.probs); i += httpPerOrder {
		p, err := sea.NewDiagonal(w.probs[i])
		if err != nil {
			return err
		}
		if err := srv.Prewarm(ctx, p, httpClients); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
	}
	errs := make([]error, httpClients)
	var wg sync.WaitGroup
	for c := 0; c < httpClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := range w.bodies {
				if _, err := w.post(ctx, w.front.url, w.bodies[(i+c)%len(w.bodies)], ""); err != nil {
					errs[c] = fmt.Errorf("warm-up: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (w *httpSmall) teardown() {
	if w.front != nil {
		w.client.CloseIdleConnections()
		w.front.close()
		w.front = nil
	}
	if w.srv != nil {
		w.srv.Close()
		w.srv = nil
	}
}

// post sends one body and reads the whole reply. A reply is correct when it
// is a 200 whose solve converged. An id tags the request (as its tenant) so
// the traced backend can join its span to the client's.
func (w *httpSmall) post(ctx context.Context, url string, body []byte, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if id != "" {
		req.Header.Set("X-Sea-Tenant", id)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	reply, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(reply))
	}
	if s := resp.Header.Get("X-Sea-Status"); s != sea.StatusConverged.String() {
		return nil, fmt.Errorf("solve status %q", s)
	}
	return reply, nil
}

// loop is the closed loop; request n sends body n mod the corpus size, so
// both clients walk the corpus round-robin between them. It refuses a pass
// that did not hit a warm shape pool on every request.
func (w *httpSmall) loop(d time.Duration, op func(n int64, body []byte) bool) (phase, error) {
	before := w.srv.Stats()
	ph := closedLoop(httpClients, d, func() bool {
		n := int64(w.cursor.Add(1) - 1)
		return op(n, w.bodies[n%int64(len(w.bodies))])
	})
	return ph, checkHitRate(before, w.srv.Stats())
}

// checkHitRate refuses a pass in which any request missed the shape pool:
// the workload measures the warm serving path.
func checkHitRate(before, after serve.Stats) error {
	if rate := hitRate(before, after); rate != 1 {
		return fmt.Errorf("serve.shape_hit_rate %.4f in the timed phase, want 1", rate)
	}
	return nil
}

func hitRate(before, after serve.Stats) float64 {
	hits := after.ShapeHits - before.ShapeHits
	misses := after.ShapeMisses - before.ShapeMisses
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func (w *httpSmall) measure(ctx context.Context, d time.Duration) (phase, error) {
	return w.loop(d, func(_ int64, body []byte) bool {
		_, err := w.post(ctx, w.front.url, body, "")
		return err == nil
	})
}

// timedBackend is the traced pass's wrapper around the backend handed to
// seahttp.New: it spans every Submit, joined to the client's request by the
// tenant tag, and attaches a sea.Trace to the solve.
type timedBackend struct {
	seahttp.Backend
	log *traceLog
}

func (b timedBackend) Submit(ctx context.Context, p *sea.Problem, opts *sea.Options) (*sea.Solution, error) {
	id, _ := strconv.ParseInt(serve.TenantFromContext(ctx), 10, 64)
	rec := solveRecord{Op: id}
	t0 := time.Now()
	sol, err := b.Backend.SubmitTraced(ctx, p, opts, sea.TraceFunc(rec.observe))
	b.log.span(id, "serve.submit", "client.request", t0, time.Now())
	b.log.solve(rec)
	return sol, err
}

// measureTraced serves the pass from a second front end whose backend is
// the timing wrapper, then times the codec on its own over the corpus.
func (w *httpSmall) measureTraced(ctx context.Context, d time.Duration) (traced, error) {
	log := newTraceLog()
	front, err := startFrontEnd(timedBackend{w.srv, log})
	if err != nil {
		return traced{}, err
	}
	before := w.srv.Stats()
	ph, err := w.loop(d, func(n int64, body []byte) bool {
		t0 := time.Now()
		_, err := w.post(ctx, front.url, body, strconv.FormatInt(n, 10))
		log.span(n, "client.request", "", t0, time.Now())
		return err == nil
	})
	after := w.srv.Stats()
	w.client.CloseIdleConnections()
	front.close()
	if err != nil {
		return traced{}, err
	}

	decode, encode, newProblem, err := w.codecTimes()
	if err != nil {
		return traced{}, err
	}
	rtt, submit := log.durations("client.request"), log.durations("serve.submit")
	var submits, self []time.Duration
	var phasesNs, attributed time.Duration
	for _, r := range log.solves {
		phasesNs += time.Duration(r.phasesNs())
	}
	for id, s := range submit {
		k := id % int64(len(w.bodies))
		submits = append(submits, s)
		self = append(self, rtt[id]-s)
		attributed += s + decode[k] + encode[k]
	}
	n := len(submits)
	if n == 0 {
		return traced{}, errors.New("traced pass recorded no submit")
	}
	layers := log.solverLayers(int64(total(after.Solve) - total(before.Solve) - phasesNs))
	if layers["serve.submit_ms_p50"], err = percentileMs(submits, 50); err != nil {
		return traced{}, fmt.Errorf("serve.submit_ms_p50: %w", err)
	}
	if layers["serve.submit_ms_p90"], err = percentileMs(submits, 90); err != nil {
		return traced{}, fmt.Errorf("serve.submit_ms_p90: %w", err)
	}
	if layers["seahttp.self_ms_p50"], err = percentileMs(self, 50); err != nil {
		return traced{}, fmt.Errorf("seahttp.self_ms_p50: %w", err)
	}
	if waits := after.QueueWait.Count - before.QueueWait.Count; waits > 0 {
		layers["serve.queue_wait_ms_mean"] = ms((total(after.QueueWait) - total(before.QueueWait)) / time.Duration(waits))
	}
	layers["serve.shape_hit_rate"] = hitRate(before, after)
	layers["matio.decode_us"] = meanUs(decode)
	layers["matio.encode_us"] = meanUs(encode)
	layers["sea.new_problem_ms"] = meanUs(newProblem) / 1000
	return traced{phase: ph, log: log, layers: layers, attributed: attributed / time.Duration(n)}, nil
}

// total is the summed duration behind a latency aggregate.
func total(l metrics.LatencySnapshot) time.Duration { return l.Mean * time.Duration(l.Count) }

// codecTimes times, per body, what the handler does around Submit, as
// separate calls: matio.ReadProblemJSON plus sea.NewDiagonal (decode, of
// which newProblem is the NewDiagonal part), and encoding the reference
// solution through matio.SolutionFromCore (encode).
func (w *httpSmall) codecTimes() (decode, encode, newProblem []time.Duration, err error) {
	for k, body := range w.bodies {
		var dec, enc, np time.Duration
		for r := 0; r < decodeReps; r++ {
			t0 := time.Now()
			d, err := matio.ReadProblemJSON(bytes.NewReader(body))
			t1 := time.Now()
			if err != nil {
				return nil, nil, nil, fmt.Errorf("decode body %d: %w", k, err)
			}
			if _, err := sea.NewDiagonal(d); err != nil {
				return nil, nil, nil, fmt.Errorf("body %d: %w", k, err)
			}
			t2 := time.Now()
			if err := json.NewEncoder(io.Discard).Encode(matio.SolutionFromCore(w.refs[k])); err != nil {
				return nil, nil, nil, fmt.Errorf("encode body %d: %w", k, err)
			}
			enc += time.Since(t2)
			dec += t2.Sub(t0)
			np += t2.Sub(t1)
		}
		decode = append(decode, dec/decodeReps)
		encode = append(encode, enc/decodeReps)
		newProblem = append(newProblem, np/decodeReps)
	}
	return decode, encode, newProblem, nil
}

func meanUs(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum) / float64(len(ds)) / float64(time.Microsecond)
}

// verify posts every body once and requires the reply's X, S and D to be
// bit-identical to the in-process solve of the same body, which must itself
// satisfy the KKT conditions within ε.
func (w *httpSmall) verify(ctx context.Context) (attempted, failed int) {
	for k, body := range w.bodies {
		attempted++
		if err := w.check(ctx, k, body); err != nil {
			failed++
		}
	}
	return attempted, failed
}

func (w *httpSmall) check(ctx context.Context, k int, body []byte) error {
	ref := w.refs[k]
	if ref.Status != sea.StatusConverged || !sea.CheckKKT(w.probs[k], ref).Satisfied(w.opts.Epsilon) {
		return fmt.Errorf("body %d: in-process reference fails its KKT check", k)
	}
	reply, err := w.post(ctx, w.front.url, body, "")
	if err != nil {
		return err
	}
	var got matio.Solution
	if err := json.Unmarshal(reply, &got); err != nil {
		return fmt.Errorf("body %d: %w", k, err)
	}
	if !sameBits(got.X, ref.X) || !sameBits(got.S, ref.S) || !sameBits(got.D, ref.D) {
		return fmt.Errorf("body %d: served solution differs from the in-process solve", k)
	}
	return nil
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
