package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"sea/pkg/sea"
)

// metricDef is one metric of BENCHMARK.json. README.md maps each per-layer
// metric to the end-to-end metrics and workloads it should move.
type metricDef struct{ name, unit, better string }

// endToEnd are the metrics a run with --trace 0 reports, measured with no
// observer and no wrapper attached.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"latency_p90_ms", "ms", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
}

// latencyP50 is printed with the end-to-end metrics but is not one of them.
// On a shared 2-vCPU host the CPU runs for spells of milliseconds to
// minutes up to ~1.8× slower; a request's latency then has a fast and a
// slow mode, and the median falls in the gap between them, so it jumps when
// a run spends a little more time in the slow state. Over two sets of ten
// 50 s http-small runs its interquartile range was 0.29 and 0.32 of its
// median, while ops_per_s and latency_p90_ms stayed within their 0.25
// bounds. In a closed loop the mean latency is clients / ops_per_s.
var latencyP50 = metricDef{"latency_p50_ms", "ms", "lower"}

// perLayer are the metrics a run with --trace 1 reports, from the traced
// pass, which times each layer from outside through public calls only. A
// layer a workload does not reach reports 0.
var perLayer = []metricDef{
	{"core.row_ms", "ms", "lower"},
	{"core.col_ms", "ms", "lower"},
	{"core.check_ms", "ms", "lower"},
	{"core.other_ms", "ms", "lower"},
	{"core.iterations", "count", "lower"},
	{"core.ops", "count", "lower"},
	{"equilibrate.equilibrations", "count", "lower"},
	{"equilibrate.ns_per_equilibration", "ns", "lower"},
	{"sea.new_problem_ms", "ms", "lower"},
	{"runtime.gc_cycles_per_op", "count", "lower"},
	{"runtime.gc_pause_ms_per_op", "ms", "lower"},
	{"runtime.mallocs_per_op", "count", "lower"},
	{"parallel.cpu_per_wall", "ratio", "higher"},
	{"serve.submit_ms_p50", "ms", "lower"},
	{"serve.submit_ms_p90", "ms", "lower"},
	{"serve.queue_wait_ms_mean", "ms", "lower"},
	{"serve.shape_hit_rate", "ratio", "higher"},
	{"seahttp.self_ms_p50", "ms", "lower"},
	{"matio.decode_us", "us", "lower"},
	{"matio.encode_us", "us", "lower"},
	{"trace.overhead_ratio", "ratio", "higher"},
	{"trace.unattributed_ms", "ms", "lower"},
}

// span is one timed interval at a layer boundary, seen from outside the
// layer. Spans of one op share Op; times are nanoseconds since the traced
// pass began.
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// solveRecord is one op's solver phases, summed over its outer iterations
// from the sea.Trace events.
type solveRecord struct {
	Op             int64 `json:"op"`
	Iterations     int   `json:"iterations"`
	RowNs          int64 `json:"row_ns"`
	ColNs          int64 `json:"col_ns"`
	CheckNs        int64 `json:"check_ns"`
	Equilibrations int64 `json:"equilibrations"`
	Ops            int64 `json:"ops"`
}

// observe is a sea.Trace callback accumulating the record.
func (r *solveRecord) observe(e sea.TraceEvent) {
	r.Iterations = e.Iteration
	r.RowNs += int64(e.RowPhase)
	r.ColNs += int64(e.ColPhase)
	r.CheckNs += int64(e.CheckPhase)
	r.Equilibrations += e.Equilibrations
	r.Ops += e.Ops
}

func (r *solveRecord) phasesNs() int64 { return r.RowNs + r.ColNs + r.CheckNs }

// traceLog keeps a traced pass's spans and solve records in memory; they
// are written out once the pass has ended. Safe for concurrent use.
type traceLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
	solves []solveRecord
}

func newTraceLog() *traceLog { return &traceLog{origin: time.Now()} }

func (l *traceLog) span(op int64, name, parent string, start, end time.Time) {
	l.mu.Lock()
	l.spans = append(l.spans, span{op, name, parent, start.Sub(l.origin).Nanoseconds(), end.Sub(l.origin).Nanoseconds()})
	l.mu.Unlock()
}

func (l *traceLog) solve(r solveRecord) {
	l.mu.Lock()
	l.solves = append(l.solves, r)
	l.mu.Unlock()
}

// durations returns the named spans' durations, indexed by op.
func (l *traceLog) durations(name string) map[int64]time.Duration {
	out := make(map[int64]time.Duration)
	for _, s := range l.spans {
		if s.Name == name {
			out[s.Op] = time.Duration(s.End - s.Start)
		}
	}
	return out
}

// solverLayers are the core and equilibrate metrics, per op, of the solve
// records; otherNs is the time the solve layer spent outside its phases.
func (l *traceLog) solverLayers(otherNs int64) map[string]float64 {
	var it, eq, ops, row, col, check int64
	for _, r := range l.solves {
		it += int64(r.Iterations)
		eq += r.Equilibrations
		ops += r.Ops
		row += r.RowNs
		col += r.ColNs
		check += r.CheckNs
	}
	n := float64(len(l.solves))
	out := map[string]float64{
		"core.row_ms":                ms(time.Duration(row)) / n,
		"core.col_ms":                ms(time.Duration(col)) / n,
		"core.check_ms":              ms(time.Duration(check)) / n,
		"core.other_ms":              ms(time.Duration(otherNs)) / n,
		"core.iterations":            float64(it) / n,
		"core.ops":                   float64(ops) / n,
		"equilibrate.equilibrations": float64(eq) / n,
	}
	if eq > 0 {
		out["equilibrate.ns_per_equilibration"] = float64(row+col) / float64(eq)
	}
	return out
}

// write stores the pass's spans and solve records as one JSON file.
func (l *traceLog) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string        `json:"workload"`
		Seed     uint64        `json:"seed"`
		Spans    []span        `json:"spans"`
		Solves   []solveRecord `json:"solves"`
	}{workload, seed, l.spans, l.solves})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
