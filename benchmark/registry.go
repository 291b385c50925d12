package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"strings"
	"sync"
	"time"

	"selfishmac/internal/bianchi"
	"selfishmac/internal/experiments"
)

// registryWorkload runs the experiment registry the way cmd/experiments
// does: GOMAXPROCS runners take experiments in registry order, and each
// experiment fans out over Settings.Workers=0 (GOMAXPROCS) itself. One op
// is one pass over every runner; each pass starts from an empty Bianchi
// solver cache, as a fresh process would. A closed loop: the next pass
// starts when the last one ends.
type registryWorkload struct {
	settings experiments.Settings
	runners  []experiments.Runner
	passes   int
	setups   int
}

// registryLayers are the experiments whose share of a pass the traced
// run reports: the ones long enough to set the pass's critical path.
var registryLayers = []string{"M1", "M2", "A2", "A9", "T2", "T3", "D4"}

func (w registryWorkload) run(tr *tracer) (*result, error) {
	res := newResult()
	var want string
	err := res.timeSetup(w.setups, func() error {
		p := w.pass(nil)
		res.attempted++
		if p.err != nil {
			return p.err
		}
		if want == "" {
			want = p.digest
		} else if p.digest != want {
			res.fail("set-up pass: report digest %s differs from %s", p.digest, want)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("registry set-up: %w", err)
	}

	var runnerTime, passTime time.Duration
	var hits, misses uint64
	critical := make([]float64, 0, w.passes)
	res.before = readUsage()
	for k := 0; k < w.passes; k++ {
		p := w.pass(tr)
		res.attempted++
		res.ops = append(res.ops, p.wall)
		if p.err != nil {
			res.fail("pass %d: %v", k, p.err)
			continue
		}
		if p.digest != want {
			res.fail("pass %d: report digest %s differs from set-up digest %s", k, p.digest, want)
		}
		runnerTime += sum(p.runner)
		passTime += p.wall
		critical = append(critical, float64(slices.Max(p.runner))/float64(p.wall))
		hits += p.hits
		misses += p.misses
	}
	res.after = readUsage()
	res.digest = want
	res.finish()

	workers := min(runtime.GOMAXPROCS(0), len(w.runners))
	res.set("experiments.worker_busy_ratio", float64(runnerTime)/float64(passTime)/float64(workers), "ratio")
	res.set("experiments.critical_path_share", median(critical), "ratio")
	res.set("bianchi.solves_per_op", float64(misses)/float64(w.passes), "count")
	if hits+misses > 0 {
		res.set("bianchi.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	}
	if tr != nil {
		shares := selfShares(tr.spans, "registry.pass")
		for _, id := range registryLayers {
			res.set("experiments."+strings.ToLower(id)+"_share", shares["experiments."+id], "ratio")
		}
	}
	return res, nil
}

// passResult is one pass over the registry.
type passResult struct {
	wall         time.Duration
	runner       []time.Duration // wall time of each runner, registry order
	digest       string          // over every report, registry order
	hits, misses uint64          // Bianchi solver cache, this pass
	err          error
}

func (w registryWorkload) pass(tr *tracer) passResult {
	bianchi.ResetCache()
	n := len(w.runners)
	reports := make([]*experiments.Report, n)
	errs := make([]error, n)
	times := make([]time.Duration, n)
	root := tr.id()

	start := time.Now()
	next := make(chan int)
	var wg sync.WaitGroup
	for k := min(runtime.GOMAXPROCS(0), n); k > 0; k-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				t0 := time.Now()
				reports[i], errs[i] = w.runners[i].Run(context.Background(), w.settings)
				t1 := time.Now()
				times[i] = t1.Sub(t0)
				if tr != nil {
					tr.record(root, 0, root, "experiments."+w.runners[i].ID, t0, t1, nil)
				}
			}
		}()
	}
	for i := range w.runners {
		next <- i
	}
	close(next)
	wg.Wait()
	end := time.Now()
	tr.record(root, root, 0, "registry.pass", start, end, nil)
	hits, misses := bianchi.CacheStats()

	p := passResult{wall: end.Sub(start), runner: times, hits: hits, misses: misses, err: errors.Join(errs...)}
	if p.err == nil {
		p.digest = reportDigest(reports)
	}
	return p
}

// reportDigest hashes every report's text, metric summary and artifacts:
// everything cmd/experiments would write to disk.
func reportDigest(reports []*experiments.Report) string {
	h := sha256.New()
	for _, r := range reports {
		io.WriteString(h, r.ID+"\x00"+r.Text+"\x00"+r.MetricsSummary()+"\x00")
		for _, a := range r.Artifacts {
			io.WriteString(h, a.Name+"\x00"+a.Content+"\x00")
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
