package core

import (
	"fmt"
	"math"

	"selfishmac/internal/num"
)

// Strategy decides a player's CW for each stage of the repeated game from
// the observed history. Observations of other players' CW values are
// assumed available per the paper (promiscuous-mode measurement, ref [3]);
// the engine may perturb them to model measurement error.
type Strategy interface {
	// Name identifies the strategy in traces and reports.
	Name() string
	// ChooseCW returns the CW to play at stage len(observed). observed
	// holds the per-stage CW profiles of all *previous* stages as seen by
	// this player (own entries are always exact; others may be noisy).
	// utilities holds this player's realized utility rate per stage.
	ChooseCW(self int, observed [][]int, utilities []float64) int
}

// TFT is the paper's TIT-FOR-TAT strategy: start cooperatively at Initial
// and thereafter play the minimum CW observed across all players in the
// previous stage.
type TFT struct {
	// Initial is the cooperative first-stage CW.
	Initial int
}

var _ Strategy = TFT{}

// Name implements Strategy.
func (t TFT) Name() string { return fmt.Sprintf("tft(W0=%d)", t.Initial) }

// ChooseCW implements Strategy.
func (t TFT) ChooseCW(_ int, observed [][]int, _ []float64) int {
	if len(observed) == 0 {
		return t.Initial
	}
	last := observed[len(observed)-1]
	minCW := last[0]
	for _, w := range last[1:] {
		if w < minCW {
			minCW = w
		}
	}
	return minCW
}

// GTFT is Generous TIT-FOR-TAT: each player averages every player's CW
// over the last R0 stages and only matches the minimum average when some
// player's average undercuts Beta times its own; otherwise it keeps its
// previous CW. Beta < 1 close to 1; larger R0 or smaller Beta is more
// tolerant (paper Section IV).
type GTFT struct {
	// Initial is the cooperative first-stage CW.
	Initial int
	// R0 is the averaging window in stages (>= 1).
	R0 int
	// Beta is the tolerance parameter in (0, 1].
	Beta float64
}

var _ Strategy = GTFT{}

// Name implements Strategy.
func (s GTFT) Name() string { return fmt.Sprintf("gtft(W0=%d,r0=%d,β=%g)", s.Initial, s.R0, s.Beta) }

// ChooseCW implements Strategy.
func (s GTFT) ChooseCW(self int, observed [][]int, _ []float64) int {
	k := len(observed)
	if k == 0 {
		return s.Initial
	}
	r0 := s.R0
	if r0 < 1 {
		r0 = 1
	}
	if r0 > k {
		r0 = k
	}
	// Size the averages to the widest view inside the averaging window
	// (views vary under churn/mobility as the neighborhood changes): the
	// decision then depends only on the last r0 stages, and a neighbor
	// that appeared mid-window cannot index out of range.
	n := 0
	for stage := k - r0; stage < k; stage++ {
		if len(observed[stage]) > n {
			n = len(observed[stage])
		}
	}
	means := make([]float64, n)
	for stage := k - r0; stage < k; stage++ {
		for j, w := range observed[stage] {
			means[j] += float64(w)
		}
	}
	minMean := math.Inf(1)
	for j := range means {
		means[j] /= float64(r0)
		if means[j] < minMean {
			minMean = means[j]
		}
	}
	own := observed[k-1][self]
	if minMean < s.Beta*means[self] {
		// Someone is undercutting beyond tolerance: match the minimum
		// average (rounded to a valid CW).
		w := int(math.Round(minMean))
		if w < 1 {
			w = 1
		}
		return w
	}
	return own
}

// Constant always plays W: the paper's malicious player (W below Wc0) and
// the never-reacting deviant are both Constant strategies.
type Constant struct {
	// W is the fixed CW.
	W int
	// Label optionally overrides the name (e.g. "malicious").
	Label string
}

var _ Strategy = Constant{}

// Name implements Strategy.
func (c Constant) Name() string {
	if c.Label != "" {
		return fmt.Sprintf("%s(W=%d)", c.Label, c.W)
	}
	return fmt.Sprintf("constant(W=%d)", c.W)
}

// ChooseCW implements Strategy.
func (c Constant) ChooseCW(int, [][]int, []float64) int { return c.W }

// BestResponse plays, each stage, the myopic best response to the other
// players' previous-stage CW profile (stage 0: Initial). It models a
// short-sighted optimizer that re-solves every stage; against TFT peers it
// demonstrates why undercutting triggers the punishment spiral of
// Section V.D.
type BestResponse struct {
	// Game supplies the channel model and utility function.
	Game *Game
	// Initial is the first-stage CW.
	Initial int
}

var _ Strategy = (*BestResponse)(nil)

// Name implements Strategy.
func (b *BestResponse) Name() string { return fmt.Sprintf("best-response(W0=%d)", b.Initial) }

// ChooseCW implements Strategy.
func (b *BestResponse) ChooseCW(self int, observed [][]int, _ []float64) int {
	if len(observed) == 0 {
		return b.Initial
	}
	last := observed[len(observed)-1]
	profile := append([]int(nil), last...)
	utilOf := func(w int) float64 {
		profile[self] = w
		sol, err := b.Game.Model().Solve(profile)
		if err != nil {
			return math.Inf(-1)
		}
		return b.Game.UtilityRate(sol, self)
	}
	stride := b.Game.Config().WMax / 64
	best, _, err := num.ArgmaxIntCoarse(utilOf, 1, b.Game.Config().WMax, stride)
	if err != nil {
		return last[self]
	}
	return best
}
