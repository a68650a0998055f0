package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"sea/pkg/sea/serve"
)

func samples(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i+1) * time.Millisecond
	}
	return out
}

func TestPercentileRefusesAThinTail(t *testing.T) {
	for _, c := range []struct {
		pct, n int
		ok     bool
		want   float64
	}{
		{90, 99, false, 0},
		{90, 100, true, 90},
		{90, 250, true, 225},
		{50, 19, false, 0},
		{50, 20, true, 10},
	} {
		got, err := percentileMs(samples(c.n), c.pct)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("p%d of %d samples = %v, %v; want %v, ok=%v", c.pct, c.n, got, err, c.want, c.ok)
		}
	}
}

func TestShapeHitRateMustBeOne(t *testing.T) {
	before := serve.Stats{ShapeHits: 10, ShapeMisses: 3}
	if err := checkHitRate(before, serve.Stats{ShapeHits: 510, ShapeMisses: 3}); err != nil {
		t.Errorf("all hits refused: %v", err)
	}
	if err := checkHitRate(before, serve.Stats{ShapeHits: 509, ShapeMisses: 4}); err == nil {
		t.Error("a pass with a pool miss was accepted")
	}
	if err := checkHitRate(before, before); err == nil {
		t.Error("a pass with no request was accepted")
	}
}

// fakeWorkload replays scripted set-up times, cyclically, and loop samples.
type fakeWorkload struct {
	setups  []time.Duration
	ops     int
	failed  int // failures the correctness gate reports
	setupAt int
}

func (f *fakeWorkload) digest() string { return "fake" }
func (f *fakeWorkload) teardown()      {}
func (f *fakeWorkload) setup(context.Context) error {
	if len(f.setups) > 0 {
		time.Sleep(f.setups[f.setupAt%len(f.setups)])
	}
	f.setupAt++
	return nil
}
func (f *fakeWorkload) measure(context.Context, time.Duration) (phase, error) {
	return phase{lat: samples(f.ops), wall: time.Second}, nil
}
func (f *fakeWorkload) measureTraced(ctx context.Context, d time.Duration) (traced, error) {
	ph, err := f.measure(ctx, d)
	return traced{phase: ph, log: newTraceLog(), layers: map[string]float64{}}, err
}
func (f *fakeWorkload) verify(context.Context) (int, int) { return 1, f.failed }

func TestSetupReportsTheMedianOfRepeatedSetups(t *testing.T) {
	// The first set-up of a process pays one-time costs; one slow or fast
	// outlier must not move the reported value.
	setups := []time.Duration{600 * time.Millisecond, 1}
	for ms := 200; len(setups) < setupReps; ms++ {
		setups = append(setups, time.Duration(ms)*time.Millisecond)
	}
	w := &fakeWorkload{ops: 200, setups: setups}
	res, err := runWorkload(context.Background(), w, config{seconds: 1}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if w.setupAt != setupReps {
		t.Fatalf("set up %d times, want %d", w.setupAt, setupReps)
	}
	if got := res.Metrics["setup_s"].Value; got < 0.200 || got > 0.220 {
		t.Errorf("setup_s = %v, want the median of %v", got, setups)
	}
}

func TestShortSetupsRepeatForTheWholeSpan(t *testing.T) {
	// A set-up much shorter than setupSpan is repeated until the span has
	// passed, so the median samples seconds of host time, not a moment.
	w := &fakeWorkload{ops: 200, setups: []time.Duration{10 * time.Millisecond}}
	t0 := time.Now()
	if _, err := runWorkload(context.Background(), w, config{seconds: 1}, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(t0); took < setupSpan || w.setupAt <= setupReps {
		t.Errorf("set up %d times in %v, want more than %d over at least %v", w.setupAt, took, setupReps, setupSpan)
	}
}

func TestRunRefusesP90FromFewerThan100Samples(t *testing.T) {
	w := &fakeWorkload{ops: 99}
	_, err := runWorkload(context.Background(), w, config{seconds: 1}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "latency_p90_ms") {
		t.Fatalf("err = %v, want a refusal of latency_p90_ms", err)
	}
}

func TestGateFailuresMakeTheRunIncorrect(t *testing.T) {
	w := &fakeWorkload{ops: 100, failed: 2}
	res, err := runWorkload(context.Background(), w, config{seconds: 1}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 2 || res.Attempted != 101 {
		t.Errorf("correct=%v attempted=%d failed=%d, want false 101 2", res.Correct, res.Attempted, res.Failed)
	}
}

func TestCorpusIsSeeded(t *testing.T) {
	digests := map[string]func(seed uint64) string{
		"spe": func(seed uint64) string {
			c, err := speCorpus(seed, 2, 20)
			if err != nil {
				t.Fatal(err)
			}
			return problemsDigest(c)
		},
		"sparse": func(seed uint64) string { return problemsDigest(sparseCorpus(seed, 2, 300)) },
		"http": func(seed uint64) string {
			b, err := httpCorpus(seed, []int{4, 6}, 2)
			if err != nil {
				t.Fatal(err)
			}
			return bodiesDigest(b)
		},
	}
	for name, digest := range digests {
		if a, b := digest(7), digest(7); a != b {
			t.Errorf("%s: seed 7 gave digests %s and %s", name, a, b)
		}
		if digest(7) == digest(8) {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs", name)
		}
	}
}

// TestHTTPSmallEndToEnd drives the real workload briefly in both modes.
func TestHTTPSmallEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the HTTP stack")
	}
	for _, mode := range []string{"0", "1"} {
		var out, errOut bytes.Buffer
		code := run([]string{"--workload", "http-small", "--seed", "3", "--seconds", "3",
			"--trace", mode, "--trace-out", ""}, &out, &errOut)
		if code != 0 {
			t.Fatalf("trace %s: exit %d: %s", mode, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %s: last line: %v", mode, err)
		}
		defs := endToEnd
		if mode == "1" {
			defs = perLayer
		}
		if !res.Correct || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Fatalf("trace %s: %+v", mode, res)
		}
		if mode == "1" && res.Metrics["serve.shape_hit_rate"].Value != 1 {
			t.Errorf("shape hit rate %v", res.Metrics["serve.shape_hit_rate"].Value)
		}
	}
}

// TestBenchmarkJSONMatchesTheMetrics keeps BENCHMARK.json and the metric
// tables the program reports from in step.
func TestBenchmarkJSONMatchesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit, Better string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d reported", kind, len(got), len(want))
		}
		for i, m := range want {
			if got[i] != (def{m.name, m.unit, m.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program reports %+v", kind, i, got[i], m)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	for _, w := range spec.Workloads {
		if w.Name != "spe-dense" && w.Name != "sparse-cold" && w.Name != "http-small" {
			t.Errorf("workload %q is not one the program runs", w.Name)
		}
	}
}
