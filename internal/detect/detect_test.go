package detect

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"selfishmac/internal/backoff"
	"selfishmac/internal/bianchi"
	"selfishmac/internal/macsim"
	"selfishmac/internal/phy"
	"selfishmac/internal/stats"
)

func TestObservationTau(t *testing.T) {
	o := Observation{Attempts: 25, Slots: 100}
	tau, err := o.Tau()
	if err != nil || tau != 0.25 {
		t.Fatalf("tau = %g err = %v", tau, err)
	}
	if _, err := (Observation{Attempts: 1, Slots: 0}).Tau(); err == nil {
		t.Error("zero slots accepted")
	}
	if _, err := (Observation{Attempts: 5, Slots: 3}).Tau(); err == nil {
		t.Error("attempts > slots accepted")
	}
	if _, err := (Observation{Attempts: -1, Slots: 3}).Tau(); err == nil {
		t.Error("negative attempts accepted")
	}
}

// EstimateCW must exactly invert the model's eq. (2).
func TestEstimateCWInvertsTau(t *testing.T) {
	m, err := bianchi.New(phy.Default().MustTiming(phy.Basic), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 16, 76, 336, 879} {
		for _, p := range []float64{0, 0.1, 0.3, 0.5, 0.8} {
			tau := m.Tau(w, p)
			got, err := EstimateCW(tau, p, 6)
			if err != nil {
				t.Fatalf("w=%d p=%g: %v", w, p, err)
			}
			if math.Abs(got-float64(w)) > 1e-9*float64(w) {
				t.Errorf("w=%d p=%g: estimated %g", w, p, got)
			}
		}
	}
}

// Property: round trip W -> tau -> W is exact for arbitrary (w, p, m).
func TestEstimateCWRoundTripProperty(t *testing.T) {
	tm := phy.Default().MustTiming(phy.Basic)
	f := func(wRaw uint16, pRaw uint8, mRaw uint8) bool {
		w := 1 + int(wRaw%2000)
		p := float64(pRaw) / 256
		stage := int(mRaw % 9)
		model, err := bianchi.New(tm, stage)
		if err != nil {
			return false
		}
		tau := model.Tau(w, p)
		got, err := EstimateCW(tau, p, stage)
		if err != nil {
			return false
		}
		return math.Abs(got-float64(w)) < 1e-6*float64(w)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEstimateCWValidation(t *testing.T) {
	if _, err := EstimateCW(0, 0.1, 6); err == nil {
		t.Error("tau=0 accepted")
	}
	if _, err := EstimateCW(1, 0.1, 6); err == nil {
		t.Error("tau=1 accepted")
	}
	if _, err := EstimateCW(0.1, -0.1, 6); err == nil {
		t.Error("negative p accepted")
	}
	if _, err := EstimateCW(0.1, 0.1, -1); err == nil {
		t.Error("negative stage accepted")
	}
	// Degenerate tau near 1 clamps to CW >= 1 rather than going below.
	w, err := EstimateCW(0.999, 0, 6)
	if err != nil || w < 1 {
		t.Errorf("w = %g err = %v", w, err)
	}
}

// End to end: estimate every node's CW from a simulator run and recover
// the true heterogeneous profile within a few percent.
func TestEstimateAllFromSimulation(t *testing.T) {
	p := phy.Default()
	trueCW := []int{32, 64, 128, 256, 512}
	res, err := macsim.Run(macsim.Config{
		Run: backoff.Run{
			Timing:   p.MustTiming(phy.Basic),
			MaxStage: p.MaxBackoffStage,
			CW:       trueCW,
			Duration: 200e6,
			Seed:     3,
			Gain:     1,
			Cost:     0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateAll(FromSimResult(res), p.MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ests {
		if rel := stats.RelErr(e.CW, float64(trueCW[i])); rel > 0.10 {
			t.Errorf("node %d: estimated CW %.1f vs true %d (rel %.3f)", i, e.CW, trueCW[i], rel)
		}
	}
}

func TestEstimateAllErrors(t *testing.T) {
	if _, err := EstimateAll(nil, 6); err == nil {
		t.Error("empty observations accepted")
	}
	bad := []Observation{{Attempts: 0, Slots: 100}, {Attempts: 10, Slots: 100}}
	if _, err := EstimateAll(bad, 6); err == nil {
		t.Error("zero-attempt node accepted (tau=0 is degenerate)")
	}
}

func TestDetectorFlagsCheater(t *testing.T) {
	p := phy.Default()
	// Four conforming nodes at the NE and one cheater far below it.
	expected := 336
	cw := []int{expected / 4, expected, expected, expected, expected}
	res, err := macsim.Run(macsim.Config{
		Run: backoff.Run{
			Timing:   p.MustTiming(phy.Basic),
			MaxStage: p.MaxBackoffStage,
			CW:       cw,
			Duration: 300e6,
			Seed:     5,
			Gain:     1,
			Cost:     0.01,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	det := Detector{ExpectedCW: expected, Beta: 0.8, MinSlots: 1000}
	verdicts, err := det.Inspect(FromSimResult(res), p.MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	if !verdicts[0].Misbehaving {
		t.Errorf("cheater not flagged: estimated CW %.1f, margin %.2f", verdicts[0].CW, verdicts[0].Margin)
	}
	for i := 1; i < len(verdicts); i++ {
		if verdicts[i].Misbehaving {
			t.Errorf("conforming node %d flagged: estimated CW %.1f", i, verdicts[i].CW)
		}
	}
}

func TestDetectorValidation(t *testing.T) {
	cases := []Detector{
		{ExpectedCW: 0, Beta: 0.8},
		{ExpectedCW: 10, Beta: 0},
		{ExpectedCW: 10, Beta: 1.5},
		{ExpectedCW: 10, Beta: 0.8, MinSlots: -1},
	}
	for _, d := range cases {
		if err := d.Validate(); err == nil {
			t.Errorf("detector %+v accepted", d)
		}
	}
	good := Detector{ExpectedCW: 10, Beta: 0.8}
	if err := good.Validate(); err != nil {
		t.Errorf("good detector rejected: %v", err)
	}
}

func TestDetectorMinSlots(t *testing.T) {
	det := Detector{ExpectedCW: 100, Beta: 0.9, MinSlots: 1000}
	obs := []Observation{{Attempts: 5, Slots: 100}, {Attempts: 5, Slots: 100}}
	if _, err := det.Inspect(obs, 6); err == nil {
		t.Fatal("short window accepted")
	}
}

func TestRequiredSlots(t *testing.T) {
	// Rarer transmitters need longer windows; tighter errors too.
	s1, err := RequiredSlots(0.01, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := RequiredSlots(0.1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := RequiredSlots(0.01, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if s1 <= s2 {
		t.Errorf("rarer transmitter should need more slots: %d <= %d", s1, s2)
	}
	if s3 <= s1 {
		t.Errorf("tighter error should need more slots: %d <= %d", s3, s1)
	}
	if _, err := RequiredSlots(0, 0.1); err == nil {
		t.Error("tau=0 accepted")
	}
	if _, err := RequiredSlots(0.1, 0); err == nil {
		t.Error("relErr=0 accepted")
	}
}

// The RequiredSlots formula must be honest: at its recommended window the
// simulated estimation error is within the requested bound (checked at a
// representative operating point with margin for model mismatch).
func TestRequiredSlotsCalibration(t *testing.T) {
	p := phy.Default()
	model, err := bianchi.New(p.MustTiming(phy.Basic), p.MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := model.SolveUniform(336, 20)
	if err != nil {
		t.Fatal(err)
	}
	slots, err := RequiredSlots(sol.Tau[0], 0.10)
	if err != nil {
		t.Fatal(err)
	}
	// Convert slots to duration via the solved mean slot time.
	duration := float64(slots) * sol.Tslot
	res, err := macsim.Run(macsim.Config{Run: backoff.Default(phy.Basic, backoff.Uniform(336, 20), duration, 11)})
	if err != nil {
		t.Fatal(err)
	}
	ests, err := EstimateAll(FromSimResult(res), p.MaxBackoffStage)
	if err != nil {
		t.Fatal(err)
	}
	bad := 0
	for _, e := range ests {
		if stats.RelErr(e.CW, 336) > 0.10 {
			bad++
		}
	}
	// 95% confidence per node: allow 2 of 20 outside.
	if bad > 2 {
		t.Errorf("%d/20 estimates outside the promised 10%% at the recommended window", bad)
	}
}

// The degenerate-observation errors must be classifiable with errors.Is
// through every public entry point that wraps them.
func TestSentinelErrorsAreIsable(t *testing.T) {
	if _, err := (Observation{Attempts: 0, Slots: 0}).Tau(); !errors.Is(err, ErrNoSlots) {
		t.Errorf("zero-slot Tau error %v is not ErrNoSlots", err)
	}
	if _, err := (Observation{Attempts: 5, Slots: 3}).Tau(); !errors.Is(err, ErrAttemptsExceedSlots) {
		t.Errorf("attempts>slots Tau error %v is not ErrAttemptsExceedSlots", err)
	}
	if _, err := (Observation{Attempts: -1, Slots: 3}).Tau(); !errors.Is(err, ErrAttemptsExceedSlots) {
		t.Errorf("negative-attempts Tau error %v is not ErrAttemptsExceedSlots", err)
	}
	if _, err := EstimateCW(0, 0.1, 5); !errors.Is(err, ErrDegenerateTau) {
		t.Errorf("tau=0 EstimateCW error %v is not ErrDegenerateTau", err)
	}
	if _, err := EstimateCW(1, 0.1, 5); !errors.Is(err, ErrDegenerateTau) {
		t.Errorf("tau=1 EstimateCW error %v is not ErrDegenerateTau", err)
	}
	// The wrapped node context must preserve Is-ability through EstimateAll.
	obs := []Observation{{Attempts: 10, Slots: 100}, {Attempts: 0, Slots: 0}}
	if _, err := EstimateAll(obs, 5); !errors.Is(err, ErrNoSlots) {
		t.Errorf("EstimateAll zero-slot error %v is not ErrNoSlots", err)
	}
	obs = []Observation{{Attempts: 10, Slots: 100}, {Attempts: 0, Slots: 100}}
	if _, err := EstimateAll(obs, 5); !errors.Is(err, ErrDegenerateTau) {
		t.Errorf("EstimateAll zero-attempt error %v is not ErrDegenerateTau", err)
	}
}

// CollisionProb must reproduce EstimateAll's inline eq.-(3) product bit
// for bit (it IS that product, factored out — this pins the refactor).
func TestCollisionProbMatchesEstimateAll(t *testing.T) {
	obs := []Observation{
		{Attempts: 120, Slots: 1000},
		{Attempts: 45, Slots: 1000},
		{Attempts: 260, Slots: 1000},
		{Attempts: 9, Slots: 1000},
	}
	ests, err := EstimateAll(obs, 5)
	if err != nil {
		t.Fatal(err)
	}
	taus := make([]float64, len(obs))
	for i, o := range obs {
		taus[i], _ = o.Tau()
	}
	for i, e := range ests {
		if got := CollisionProb(taus, i); got != e.P {
			t.Errorf("node %d: CollisionProb %v != EstimateAll P %v", i, got, e.P)
		}
	}
}
