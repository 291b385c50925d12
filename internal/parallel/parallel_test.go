package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestForEachRunsEveryIndexOnce(t *testing.T) {
	const n = 1000
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			var runs [n]atomic.Int32
			busy := make([]atomic.Bool, workers)
			err := ForEach(context.Background(), n, workers, func(w, i int) error {
				if w < 0 || w >= workers {
					return fmt.Errorf("index %d ran on worker %d, outside [0, %d)", i, w, workers)
				}
				if !busy[w].CompareAndSwap(false, true) {
					return fmt.Errorf("worker %d ran two indices at once", w)
				}
				runs[i].Add(1)
				busy[w].Store(false)
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			for i := range runs {
				if got := runs[i].Load(); got != 1 {
					t.Fatalf("index %d ran %d times, want 1", i, got)
				}
			}
		})
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		err := ForEach(context.Background(), 64, workers, func(_, i int) error {
			if i%10 == 7 {
				return fmt.Errorf("index %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "index 7" {
			t.Fatalf("workers %d: got %v, want the index-7 error", workers, err)
		}
	}
}

func TestForEachReportsCancellation(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := ForEach(ctx, 1000, workers, func(_, i int) error {
			if ran.Add(1) == 5 {
				cancel()
			}
			return nil
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers %d: got %v, want context.Canceled", workers, err)
		}
		// Each worker may finish the index it holds, but none claims more.
		if got := ran.Load(); got > int32(5+workers) {
			t.Fatalf("workers %d: %d indices ran after cancelling at the 5th", workers, got)
		}
	}
	// A real error outranks the cancellation it races with.
	ctx, cancel := context.WithCancel(context.Background())
	boom := errors.New("boom")
	err := ForEach(ctx, 10, 1, func(_, i int) error {
		cancel()
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the fn error", err)
	}
	// An already-cancelled context runs nothing, even for n = 0.
	if err := ForEach(ctx, 0, 4, func(int, int) error { return nil }); !errors.Is(err, context.Canceled) {
		t.Fatalf("n=0: got %v, want context.Canceled", err)
	}
	if err := ForEach(ctx, 5, 4, func(int, int) error {
		t.Error("fn ran under a cancelled context")
		return nil
	}); !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}
