package main

import (
	"reflect"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeeded(t *testing.T) {
	phases := []ratePhase{{"low", 80, 5 * time.Second}, {"high", 250, 4 * time.Second}}
	a := poissonSchedule(1, phases, len(daemonTemplates))
	if b := poissonSchedule(1, phases, len(daemonTemplates)); !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := poissonSchedule(2, phases, len(daemonTemplates)); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}

	counts := make([]int, len(phases))
	for i, arr := range a {
		if i > 0 && arr.at < a[i-1].at {
			t.Fatalf("arrival %d at %v precedes arrival %d at %v", i, arr.at, i-1, a[i-1].at)
		}
		if arr.seed < 1 || arr.seed > 16 || arr.template < 0 || arr.template >= len(daemonTemplates) {
			t.Fatalf("arrival %d out of range: %+v", i, arr)
		}
		counts[arr.phase]++
	}
	// 400 and 1000 expected arrivals; five standard deviations either way.
	for p, ph := range phases {
		want := ph.rate * ph.dur.Seconds()
		if d := float64(counts[p]) - want; d*d > 25*want {
			t.Errorf("phase %s: %d arrivals, want about %g", ph.name, counts[p], want)
		}
	}
}
