// Package runner is the experiment execution engine of the
// reproduction: a context-aware worker pool with deterministic result
// ordering and full error aggregation (runner.Map), and the
// machine-readable result schema vmbench emits (Report, Run).
package runner

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Options configures one pool run.
type Options struct {
	// Jobs is the degree of parallelism; <= 0 means GOMAXPROCS.
	Jobs int
	// Progress, if non-nil, is called after each job finishes with
	// the number of completed jobs and the total. Calls are
	// serialized and in nondecreasing done order.
	Progress func(done, total int)
}

func (o Options) jobs() int {
	if o.Jobs > 0 {
		return o.Jobs
	}
	return runtime.GOMAXPROCS(0)
}

// Map runs fn(ctx, i) for every i in [0, n) on a bounded worker pool
// and returns the results in index order.
//
// Unlike first-error helpers, Map does not abandon the grid when one
// job fails: every job still runs, every failure is collected, and
// the returned error joins them in index order (errors.Join). The
// result slice always has length n; entries whose job failed hold the
// zero value, so partial results remain usable alongside a non-nil
// error.
//
// Cancelling ctx stops the pool from dispatching further jobs;
// already-running jobs see the cancelled context through fn's ctx
// argument. Jobs that never started report ctx's cause as their
// error.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	if n == 0 {
		return results, nil
	}

	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	idx := make(chan int)
	workers := min(opts.jobs(), n)
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				// The dispatcher's select can race a worker freed by
				// the same cancellation and still hand out one more
				// index; re-checking here makes the guarantee strict.
				if ctx.Err() != nil {
					errs[i] = fmt.Errorf("job %d skipped: %w", i, context.Cause(ctx))
				} else {
					results[i], errs[i] = fn(ctx, i)
				}
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, n)
					mu.Unlock()
				}
			}
		}()
	}

dispatch:
	for i := range n {
		select {
		case idx <- i:
		case <-ctx.Done():
			// Mark everything not yet dispatched as skipped. Each
			// skip still counts as a finished job for Progress, so
			// done reaches total even on cancellation.
			for k := i; k < n; k++ {
				errs[k] = fmt.Errorf("job %d skipped: %w", k, context.Cause(ctx))
				if opts.Progress != nil {
					mu.Lock()
					done++
					opts.Progress(done, n)
					mu.Unlock()
				}
			}
			break dispatch
		}
	}
	close(idx)
	wg.Wait()

	return results, errors.Join(errs...)
}
