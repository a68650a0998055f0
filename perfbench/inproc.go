package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"sea/pkg/sea"
)

// inproc is a closed loop of one caller solving its corpus round-robin in
// process. Every op is cold: sea.NewDiagonal then sea.Solve, with no arena.
type inproc struct {
	corpus []*sea.DiagonalProblem
	opts   *sea.Options
	next   int       // round-robin cursor
	done   []outcome // every op since the last setup, in order
}

// outcome is what the correctness gate needs of one op.
type outcome struct {
	instance   int
	iterations int
	objective  uint64 // bits
}

func newSpeDense(seed uint64) (*inproc, error) {
	corpus, err := speCorpus(seed, 8, 100)
	if err != nil {
		return nil, err
	}
	o := sea.DefaultOptions()
	o.Criterion = sea.DualGradient
	o.Epsilon = 0.01
	o.Procs = 1
	return &inproc{corpus: corpus, opts: o}, nil
}

func newSparseCold(seed uint64) *inproc {
	o := sea.DefaultOptions()
	o.Criterion = sea.MaxAbsDelta
	o.Epsilon = 0.01
	o.Procs = 2
	return &inproc{corpus: sparseCorpus(seed, 2, 10000), opts: o}
}

func (w *inproc) digest() string { return problemsDigest(w.corpus) }

func (w *inproc) solve(ctx context.Context, d *sea.DiagonalProblem) (*sea.Solution, error) {
	p, err := sea.NewDiagonal(d)
	if err != nil {
		return nil, err
	}
	return sea.Solve(ctx, "sea", p, w.opts)
}

// op solves the next instance and reports whether it converged. With a
// non-nil log it attaches a sea.Trace to the solve and spans the two facade
// calls; otherNs then accumulates the solve time outside the traced phases.
func (w *inproc) op(ctx context.Context, log *traceLog, otherNs *int64) bool {
	id, k := int64(w.next), w.next%len(w.corpus)
	w.next++
	o := w.opts
	var rec *solveRecord
	if log != nil {
		rec = &solveRecord{Op: id}
		traced := *w.opts
		traced.Trace = sea.TraceFunc(rec.observe)
		o = &traced
	}
	t0 := time.Now()
	p, err := sea.NewDiagonal(w.corpus[k])
	t1 := time.Now()
	var sol *sea.Solution
	if err == nil {
		sol, err = sea.Solve(ctx, "sea", p, o)
	}
	if log != nil {
		t2 := time.Now()
		log.span(id, "op", "", t0, t2)
		log.span(id, "sea.new_problem", "op", t0, t1)
		log.span(id, "sea.solve", "op", t1, t2)
		log.solve(*rec)
		*otherNs += t2.Sub(t1).Nanoseconds() - rec.phasesNs()
	}
	if err != nil || sol.Status != sea.StatusConverged {
		return false
	}
	w.done = append(w.done, outcome{k, sol.Iterations, math.Float64bits(sol.Objective)})
	return true
}

// setup warms the process up with one op per instance.
func (w *inproc) setup(ctx context.Context) error {
	w.next, w.done = 0, nil
	for range w.corpus {
		if !w.op(ctx, nil, nil) {
			return fmt.Errorf("warm-up op %d did not converge", w.next-1)
		}
	}
	return nil
}

func (w *inproc) teardown() {}

func (w *inproc) measure(ctx context.Context, d time.Duration) (phase, error) {
	return closedLoop(1, d, func() bool { return w.op(ctx, nil, nil) }), nil
}

func (w *inproc) measureTraced(ctx context.Context, d time.Duration) (traced, error) {
	log := newTraceLog()
	var otherNs int64
	ph := closedLoop(1, d, func() bool { return w.op(ctx, log, &otherNs) })
	layers := log.solverLayers(otherNs)
	var newNs, opNs time.Duration
	for _, d := range log.durations("sea.new_problem") {
		newNs += d
	}
	for _, d := range log.durations("op") {
		opNs += d
	}
	n := time.Duration(len(log.solves))
	layers["sea.new_problem_ms"] = ms(newNs / n)
	return traced{phase: ph, log: log, layers: layers, attributed: opNs / n}, nil
}

// verify is the correctness gate, run outside the timed region: a cold
// reference solve of every instance must converge and satisfy the KKT
// conditions within ε, and every converged op since setup must have
// reproduced its instance's reference iteration count and objective bit for
// bit. It returns the reference solves attempted and every failure.
func (w *inproc) verify(ctx context.Context) (attempted, failed int) {
	refs := make([]outcome, len(w.corpus))
	for k, d := range w.corpus {
		attempted++
		sol, err := w.solve(ctx, d)
		if err != nil || sol.Status != sea.StatusConverged || !sea.CheckKKT(d, sol).Satisfied(w.opts.Epsilon) {
			failed++
			refs[k] = outcome{instance: k, iterations: -2}
			continue
		}
		refs[k] = outcome{k, sol.Iterations, math.Float64bits(sol.Objective)}
	}
	for _, o := range w.done {
		if o != refs[o.instance] {
			failed++
		}
	}
	return attempted, failed
}
