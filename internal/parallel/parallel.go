// Package parallel is the repository's one worker pool: an
// index-claiming fan-out shared by the experiment harness, the
// replication controller, the multihop sweeps and the experiments CLI.
//
// Determinism is structural, not accidental: every caller partitions its
// work by index — fn writes only state owned by its index, and draws
// randomness from a seed derived per index — so results are bit-identical
// to the serial loop at any worker count. The worker index passed to fn
// exists for per-worker state (a reusable engine per worker), which must
// not influence results.
package parallel

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(worker, i) for every i in [0, n) over at most workers
// goroutines (0 or negative means GOMAXPROCS), each claiming the next
// unclaimed index. worker is in [0, min(workers, n)) and no two calls
// with the same worker run concurrently. With one worker the loop runs
// serially on the calling goroutine and stops at the first error.
//
// It returns the lowest-index error, so error reporting is deterministic
// too. Workers stop claiming new indices once ctx is cancelled; if no
// claimed fn failed, ForEach returns ctx.Err(), so a cancelled fan-out
// surfaces as an error rather than a silently truncated result.
func ForEach(ctx context.Context, n, workers int, fn func(worker, i int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(0, i); err != nil {
				return err
			}
		}
		return ctx.Err()
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(w, i)
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
