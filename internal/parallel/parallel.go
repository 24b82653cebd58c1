// Package parallel is the bounded fan-out helper used by the compiler
// and simulation pipeline. It exists so every parallelized stage shares
// one carefully-specified primitive instead of ad-hoc goroutine code:
//
//   - results are addressed by index, so output order never depends on
//     goroutine scheduling (the pipeline's byte-reproducibility
//     invariant: -j1 and -jN must produce identical artifacts);
//   - error selection is deterministic: when several calls fail, the
//     lowest-index error is returned, matching what a serial loop that
//     stops at the first failure would report (a failure stops the
//     dispatch of higher indices only, so every lower index still runs);
//   - workers <= 1 degenerates to a plain serial loop on the caller's
//     goroutine, so the serial path has no goroutine overhead and is
//     trivially the reference implementation;
//   - cancellation of the caller's context stops dispatching new
//     indices, and the first failure cancels the context passed to the
//     remaining calls (errgroup-style).
package parallel

import (
	"context"
	"sync"
	"sync/atomic"
)

// Map calls fn(ctx, i) once for every i in [0, n), running at most
// workers calls concurrently, and waits for all of them. It returns the
// non-nil error with the lowest index, or — when every call succeeded
// but the caller's context was cancelled mid-flight — ctx.Err().
//
// The first failure cancels the context handed to calls that have not
// completed yet; calls are free to ignore it (all of this package's
// users do), and a call that ignores it reports exactly the error a
// serial loop would have stopped at. A panic in fn is
// re-raised on the calling goroutine after the other workers drain, so
// panic semantics match the serial path.
func Map(ctx context.Context, workers, n int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(ctx, i); err != nil {
				return err
			}
		}
		return nil
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	errs := make([]error, n)
	var (
		next     atomic.Int64
		failed   atomic.Int64 // lowest failed index so far; n while none
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicVal any
		panicked bool
	)
	failed.Store(int64(n))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil || int64(i) > failed.Load() {
					// Cancelled by the caller, or above a failed index:
					// stop dispatching. Nothing is recorded for skipped
					// indices, and no index below a failure is skipped,
					// so the error reported below is the genuine
					// lowest-index failure, not a cascade.
					continue
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicMu.Lock()
							if !panicked {
								panicked, panicVal = true, r
							}
							panicMu.Unlock()
							failed.Store(-1)
							cancel()
						}
					}()
					if err := fn(cctx, i); err != nil {
						errs[i] = err
						for f := failed.Load(); int64(i) < f; f = failed.Load() {
							if failed.CompareAndSwap(f, int64(i)) {
								break
							}
						}
						cancel()
					}
				}()
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}

// MapVals is Map with a result slice: out[i] holds the value fn
// returned for index i, in index order regardless of completion order.
// On error the partially-filled slice is returned alongside it.
func MapVals[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := Map(ctx, workers, n, func(ctx context.Context, i int) error {
		v, err := fn(ctx, i)
		if err != nil {
			return err
		}
		out[i] = v
		return nil
	})
	return out, err
}
