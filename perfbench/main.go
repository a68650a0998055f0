// Command perfbench is the repository's benchmark: it runs one workload for
// a fixed time and prints its metrics, the last line being one JSON object.
// Run it from the repository root through its build script:
//
//	bash perfbench/run.sh --workload spe-dense --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the timed phase runs with no observer and no wrapper and
// the run reports the end-to-end metrics. With --trace 1 the timed time is
// split between an untraced and a traced pass, and the run reports the
// per-layer metrics, each layer timed from outside through public calls.
// See README.md for the workloads and what each metric should move.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// A run sets the program up at least setupReps times and for at least
// setupSpan, tearing each set-up down before the next; setup_s is the
// median. The host's speed changes for spells of up to seconds, so a short
// set-up repeated for only a few hundred milliseconds reports whichever
// state those fell in.
const (
	setupReps = 15
	setupSpan = 3 * time.Second
)

// workload is one seeded input set and the program driven over it.
type workload interface {
	// digest identifies the generated inputs (SHA-256, hex).
	digest() string
	// setup builds the program's state from the first call into it up to
	// the start of the timed phase; teardown releases it.
	setup(ctx context.Context) error
	teardown()
	// measure runs the closed loop for d with nothing attached.
	measure(ctx context.Context, d time.Duration) (phase, error)
	// measureTraced runs it for d with the layer spans recorded.
	measureTraced(ctx context.Context, d time.Duration) (traced, error)
	// verify runs the correctness gate outside the timed region and
	// returns the checks it attempted and every failure it found.
	verify(ctx context.Context) (attempted, failed int)
}

// newWorkload generates the named workload's corpus from seed.
func newWorkload(name string, seed uint64) (workload, error) {
	switch name {
	case "spe-dense":
		return newSpeDense(seed)
	case "sparse-cold":
		return newSparseCold(seed), nil
	case "http-small":
		return newHTTPSmall(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (spe-dense, sparse-cold, http-small)", name)
}

// phase is one closed-loop measurement.
type phase struct {
	lat       []time.Duration // every completed op
	failed    int
	wall, cpu time.Duration
	// Heap and GC counters over the phase.
	allocBytes, mallocs uint64
	gcCycles            uint32
	gcPause             time.Duration
}

func (p phase) perOp(v float64) float64 { return v / float64(len(p.lat)) }

// traced is a measurement with the layer spans: the per-layer metrics the
// workload derives from them, and attributed, the mean op time they cover.
type traced struct {
	phase
	log        *traceLog
	layers     map[string]float64
	attributed time.Duration
}

// closedLoop runs clients callers, each issuing op back to back until d has
// passed, and records every op's latency and the process counters around
// the whole loop. op reports whether the op passed its correctness check.
func closedLoop(clients int, d time.Duration, op func() bool) phase {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(d)
	lats := make([][]time.Duration, clients)
	fails := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				t0 := time.Now()
				ok := op()
				lats[c] = append(lats[c], time.Since(t0))
				if !ok {
					fails[c]++
				}
			}
		}(c)
	}
	wg.Wait()
	p := phase{wall: time.Since(start), cpu: cpuTime() - cpu0}
	runtime.ReadMemStats(&m1)
	for c := range lats {
		p.lat = append(p.lat, lats[c]...)
		p.failed += fails[c]
	}
	p.allocBytes = m1.TotalAlloc - m0.TotalAlloc
	p.mallocs = m1.Mallocs - m0.Mallocs
	p.gcCycles = m1.NumGC - m0.NumGC
	p.gcPause = time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)
	return p
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	traceOut string // directory for the traced pass's spans; "" keeps them in memory
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: spe-dense, sparse-cold or http-small")
	fs.Uint64Var(&cfg.seed, "seed", 1, "corpus seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of the timed phase in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced pass")
	fs.StringVar(&cfg.traceOut, "trace-out", filepath.Join(".bench_build", "perfbench", "spans"),
		"directory the traced pass writes its spans to (empty: none)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if traceFlag != 0 && traceFlag != 1 || cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1 and --seconds positive")
		return 2
	}
	cfg.trace = traceFlag == 1
	w, err := newWorkload(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := runWorkload(context.Background(), w, cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// runWorkload sets the program up repeatedly, runs the timed phase (or
// the untraced and traced passes), checks every output, and returns the
// metrics.
func runWorkload(ctx context.Context, w workload, cfg config, stdout io.Writer) (res result, err error) {
	fmt.Fprintf(stdout, "corpus %s seed=%d sha256=%s\n", cfg.workload, cfg.seed, w.digest())

	var setups []time.Duration
	for start := time.Now(); len(setups) < setupReps || time.Since(start) < setupSpan; {
		if len(setups) > 0 {
			w.teardown()
		}
		runtime.GC()
		t0 := time.Now()
		err := w.setup(ctx)
		setups = append(setups, time.Since(t0))
		if err != nil {
			w.teardown()
			return res, fmt.Errorf("setup: %w", err)
		}
	}
	defer w.teardown()
	fmt.Fprintf(stdout, "setups %d, median %v\n", len(setups), median(setups))

	d := time.Duration(cfg.seconds * float64(time.Second))
	var metrics map[string]float64 // a layer the workload does not reach reads 0
	var attempted, failed int
	if cfg.trace {
		plain, err := w.measure(ctx, d/2)
		if err != nil {
			return res, err
		}
		tr, err := w.measureTraced(ctx, d/2)
		if err != nil {
			return res, err
		}
		if metrics, err = layerMetrics(plain, tr); err != nil {
			return res, err
		}
		attempted = len(plain.lat) + len(tr.lat)
		failed = plain.failed + tr.failed
		if cfg.traceOut != "" {
			path := filepath.Join(cfg.traceOut, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
			if err := tr.log.write(path, cfg.workload, cfg.seed); err != nil {
				return res, fmt.Errorf("write spans: %w", err)
			}
			fmt.Fprintf(stdout, "spans %s\n", path)
		}
	} else {
		ph, err := w.measure(ctx, d)
		if err != nil {
			return res, err
		}
		if metrics, err = endToEndMetrics(ph, median(setups)); err != nil {
			return res, err
		}
		attempted, failed = len(ph.lat), ph.failed
	}
	va, vf := w.verify(ctx)
	attempted += va
	failed += vf

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res = result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	for _, m := range defs {
		res.Metrics[m.name] = metric{metrics[m.name], m.unit}
		fmt.Fprintf(stdout, "%-34s %14.6g %s\n", m.name, metrics[m.name], m.unit)
	}
	if v, ok := metrics[latencyP50.name]; ok {
		fmt.Fprintf(stdout, "%-34s %14.6g %s (not in BENCHMARK.json)\n", latencyP50.name, v, latencyP50.unit)
	}
	fmt.Fprintf(stdout, "attempted %d failed %d\n", attempted, failed)
	return res, nil
}

// endToEndMetrics derives the --trace 0 metrics from the timed phase.
func endToEndMetrics(ph phase, setup time.Duration) (map[string]float64, error) {
	if len(ph.lat) == 0 {
		return nil, errors.New("the timed phase completed no op")
	}
	p50, err := percentileMs(ph.lat, 50)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", latencyP50.name, err)
	}
	p90, err := percentileMs(ph.lat, 90)
	if err != nil {
		return nil, fmt.Errorf("latency_p90_ms: %w", err)
	}
	return map[string]float64{
		"setup_s":         setup.Seconds(),
		"ops_per_s":       float64(len(ph.lat)) / ph.wall.Seconds(),
		latencyP50.name:   p50,
		"latency_p90_ms":  p90,
		"alloc_kb_per_op": ph.perOp(float64(ph.allocBytes) / 1024),
	}, nil
}

// layerMetrics derives the --trace 1 metrics: the workload's own layers,
// the runtime and scheduling counters of the traced pass, the tracing
// overhead, and the op time no layer span covers.
func layerMetrics(plain phase, tr traced) (map[string]float64, error) {
	if len(plain.lat) == 0 || len(tr.lat) == 0 {
		return nil, errors.New("a pass completed no op")
	}
	out := map[string]float64{}
	for k, v := range tr.layers {
		out[k] = v
	}
	var sum time.Duration
	for _, l := range tr.lat {
		sum += l
	}
	mean := sum / time.Duration(len(tr.lat))
	out["runtime.gc_cycles_per_op"] = tr.perOp(float64(tr.gcCycles))
	out["runtime.gc_pause_ms_per_op"] = tr.perOp(ms(tr.gcPause))
	out["runtime.mallocs_per_op"] = tr.perOp(float64(tr.mallocs))
	out["parallel.cpu_per_wall"] = tr.cpu.Seconds() / tr.wall.Seconds()
	out["trace.overhead_ratio"] = (float64(len(tr.lat)) / tr.wall.Seconds()) /
		(float64(len(plain.lat)) / plain.wall.Seconds())
	out["trace.unattributed_ms"] = ms(mean - tr.attributed)
	return out, nil
}
