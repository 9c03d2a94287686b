// Package sweep runs embarrassingly-parallel parameter sweeps — the outer
// loops of the experiments (cache sizes, λ grids, seed replications) —
// across a bounded worker pool, preserving input order and determinism.
// Each task must derive its own random stream from its parameters; the
// sweep machinery adds no nondeterminism of its own.
package sweep

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// ErrBadSweep reports invalid sweep configuration.
var ErrBadSweep = errors.New("sweep: bad sweep")

// ErrPanic reports a task that panicked; the wrapping error carries the
// index of the parameter that caused it.
var ErrPanic = errors.New("task panicked")

// Run applies fn to every parameter on up to `workers` goroutines
// (0 ⇒ GOMAXPROCS) and returns the results in input order. The first error
// (by input order) is returned with its parameter index; all tasks run to
// completion regardless, so partial results are never silently dropped
// mid-flight.
func Run[P, R any](params []P, workers int, fn func(P) (R, error)) ([]R, error) {
	if fn == nil {
		return nil, fmt.Errorf("%w: nil task function", ErrBadSweep)
	}
	if workers < 0 {
		return nil, fmt.Errorf("%w: %d workers", ErrBadSweep, workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(params) {
		workers = len(params)
	}
	results := make([]R, len(params))
	errs := make([]error, len(params))
	if len(params) == 0 {
		return results, nil
	}

	indices := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				results[i], errs[i] = protect(fn, params[i])
			}
		}()
	}
	for i := range params {
		indices <- i
	}
	close(indices)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sweep: task %d: %w", i, err)
		}
	}
	return results, nil
}

// protect invokes fn and converts a panic into an error, so one bad
// parameter cannot kill the whole process; Run's error wrapping attaches
// the offending task index.
func protect[P, R any](fn func(P) (R, error), p P) (r R, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%w: %v", ErrPanic, rec)
		}
	}()
	return fn(p)
}

// Map is Run with the worker count defaulted, for readability at call
// sites that never tune parallelism.
func Map[P, R any](params []P, fn func(P) (R, error)) ([]R, error) {
	return Run(params, 0, fn)
}
