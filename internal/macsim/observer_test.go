package macsim

import (
	"fmt"
	"reflect"
	"testing"

	"selfishmac/internal/backoff"
	"selfishmac/internal/phy"
)

// observer_test.go pins the observation-stream contract: the fast and
// reference engines emit the identical (slot, transmitters) event
// sequence for every configuration in the differential matrix, and
// attaching an observer leaves the Result byte-identical to a run
// without one.

// recordedEvent is one observed busy slot with the transmitter set copied
// out of the engine-owned scratch.
type recordedEvent struct {
	Slot int64
	Tx   []int
}

type recordingObserver struct {
	events []recordedEvent
}

func (r *recordingObserver) OnEvent(slot int64, transmitters []int) {
	r.events = append(r.events, recordedEvent{Slot: slot, Tx: append([]int(nil), transmitters...)})
}

func TestDifferentialObserverStreamFastMatchesReference(t *testing.T) {
	for ci, cfg := range diffConfigs(t) {
		t.Run(fmt.Sprintf("cfg%02d", ci), func(t *testing.T) {
			fastObs, refObs := &recordingObserver{}, &recordingObserver{}

			fcfg := cfg
			fcfg.Observer = fastObs
			fres, err := Run(fcfg)
			if err != nil {
				t.Fatal(err)
			}

			rcfg := cfg
			rcfg.Observer = refObs
			rres, err := RunReference(rcfg)
			if err != nil {
				t.Fatal(err)
			}

			if len(fastObs.events) == 0 {
				t.Fatal("fast engine emitted no events")
			}
			if !reflect.DeepEqual(fastObs.events, refObs.events) {
				t.Fatalf("event streams diverge: fast %d events, reference %d events", len(fastObs.events), len(refObs.events))
			}
			if !reflect.DeepEqual(fres, rres) {
				t.Fatal("results diverge with observers attached")
			}

			// The stream must be self-consistent with the result: one event
			// per busy slot, slots strictly increasing, attempts matching
			// the per-node counters.
			if got, want := int64(len(fastObs.events)), fres.SuccessEvents+fres.CollisionEvents; got != want {
				t.Fatalf("%d events for %d busy slots", got, want)
			}
			attempts := make([]int64, len(cfg.CW))
			last := int64(-1)
			for _, ev := range fastObs.events {
				if ev.Slot <= last {
					t.Fatalf("event slots not strictly increasing: %d after %d", ev.Slot, last)
				}
				last = ev.Slot
				for _, i := range ev.Tx {
					attempts[i]++
				}
			}
			for i, nd := range fres.Nodes {
				if attempts[i] != nd.Attempts {
					t.Fatalf("node %d: stream counted %d attempts, result says %d", i, attempts[i], nd.Attempts)
				}
			}
		})
	}
}

// Attaching an observer must not perturb the simulation: the Result with
// the hook enabled is byte-identical to the Result without it.
func TestObserverDoesNotPerturbResult(t *testing.T) {
	base := Config{
		Run: backoff.Run{
			Timing:   phy.Default().MustTiming(phy.Basic),
			MaxStage: 6,
			CW:       []int{32, 64, 128, 16, 336},
			Duration: 2e6,
			Seed:     42,
			Gain:     1,
			Cost:     0.01,
		},
	}
	plain, err := Run(base)
	if err != nil {
		t.Fatal(err)
	}
	hooked := base
	hooked.Observer = &recordingObserver{}
	observed, err := Run(hooked)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("observer changed the simulation result")
	}
}
