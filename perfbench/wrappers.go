package main

import (
	"math/rand"

	"paratune/internal/core"
	"paratune/internal/harmony"
	"paratune/internal/noise"
	"paratune/internal/objective"
	"paratune/internal/sample"
	"paratune/internal/space"
)

// The wrappers below time calls into one layer through its public
// interface. Each is installed only in traced runs; untraced runs hand the
// layer's own value to the system unchanged.

// leafFn records one timed leaf call: into the caller's track when the
// wrapped value is used by one goroutine, into the tracer directly when it
// is shared by many.
type leafFn func(name string, d int64)

// tracedAlg times Init and Step of a core.Algorithm and wraps the evaluator
// each receives, so a step's own work and the time it waits for its
// evaluations separate: self(step) = step - eval.
type tracedAlg struct {
	core.Algorithm
	k *track
	// evalName names the evaluation span: the wait for clients in a serve
	// workload, the cluster simulation in sim-tune.
	evalName string
	// flushEach flushes after every call, for algorithms driven by a
	// session goroutine that may exit at any point.
	flushEach bool
}

func (a *tracedAlg) Init(ev core.Evaluator) error {
	a.k.begin("core.init")
	err := a.Algorithm.Init(&tracedEval{ev: ev, k: a.k, name: a.evalName})
	a.k.end()
	a.k.count("core.inits", 1)
	if a.flushEach {
		a.k.flush()
	}
	return err
}

func (a *tracedAlg) Step(ev core.Evaluator) (core.StepInfo, error) {
	a.k.begin("core.step")
	info, err := a.Algorithm.Step(&tracedEval{ev: ev, k: a.k, name: a.evalName})
	a.k.end()
	a.k.count("core.steps", 1)
	if a.flushEach {
		a.k.flush()
	}
	return info, err
}

type tracedEval struct {
	ev   core.Evaluator
	k    *track
	name string
}

func (e *tracedEval) Eval(points []space.Point) ([]float64, error) {
	e.k.begin(e.name)
	vals, err := e.ev.Eval(points)
	e.k.end()
	e.k.count("core.points", int64(len(points)))
	return vals, err
}

// tracedFactory gives every harmony session its own track: a session's
// algorithm runs on that session's goroutine only.
func tracedFactory(t *tracer) harmony.AlgorithmFactory {
	return func(s *space.Space) (core.Algorithm, error) {
		alg, err := core.NewPRO(core.Options{Space: s})
		if err != nil {
			return nil, err
		}
		return &tracedAlg{Algorithm: alg, k: t.newTrack(), evalName: "core.eval", flushEach: true}, nil
	}
}

type tracedEst struct {
	sample.Estimator
	t    *tracer
	leaf leafFn
}

func (e *tracedEst) Estimate(obs []float64) float64 {
	t0 := e.t.now()
	v := e.Estimator.Estimate(obs)
	e.leaf("sample.estimate", e.t.now()-t0)
	return v
}

type tracedModel struct {
	noise.Model
	t    *tracer
	leaf leafFn
}

func (m *tracedModel) Perturb(f float64, rng *rand.Rand) float64 {
	t0 := m.t.now()
	v := m.Model.Perturb(f, rng)
	m.leaf("noise.perturb", m.t.now()-t0)
	return v
}

type tracedFunc struct {
	objective.Function
	t    *tracer
	leaf leafFn
}

func (f *tracedFunc) Eval(x space.Point) float64 {
	t0 := f.t.now()
	v := f.Function.Eval(x)
	f.leaf("objective.eval", f.t.now()-t0)
	return v
}

type tracedCache struct {
	c harmony.EstimateCache
	t *tracer
}

func (c *tracedCache) Lookup(p space.Point) (float64, bool, int, bool) {
	t0 := c.t.now()
	v, fed, n, ok := c.c.Lookup(p)
	c.t.sharedLeaf("feddb.cache.lookup", c.t.now()-t0)
	return v, fed, n, ok
}
