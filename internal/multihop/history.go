package multihop

import "selfishmac/internal/core"

// history.go owns the observation/utility histories Engine.Run feeds the
// strategies. The naive representation — append every stage's per-node
// local views forever — retains O(stages·n·deg) ints for the life of the
// run, which dwarfs the simulator's own footprint on long runs. But every
// paper strategy reads a bounded suffix of the history (TFT the last
// stage, GTFT the last R0), so when all strategies declare a bound via
// core.BoundedHistory the engine keeps only the deepest window: D
// rotating per-stage slabs hold the view data, and per-node header/value
// grids expose each node's window as an ordinary [][]int / []float64 —
// ChooseCW implementations are none the wiser. Memory is then
// O(D·n·deg), constant in the stage count. One unbounded strategy
// (GrimTrigger, Deviant) anywhere in the population falls the whole run
// back to full retention, preserving exact semantics.
type obsHistory struct {
	n     int
	depth int // window depth D; 0 = full retention

	// Full-retention mode.
	fullObs  [][][]int
	fullUtil [][]float64

	// Windowed mode. views/utils are n×D grids: node i's window is
	// views[i*D : i*D+size] in chronological order (shifted left as
	// stages roll off). slabs is the ring of D stage slabs the view
	// headers point into; the slab overwritten at stage k backed the
	// views that roll off at stage k, so no live window ever aliases it.
	size  int // stages currently held, <= depth
	stage int // stages recorded so far
	views [][]int
	utils []float64
	slabs [][]int
}

// newObsHistory picks the retention mode for the population: the deepest
// declared window when every strategy bounds its history, full retention
// otherwise. A zero-depth population (all constant) still keeps one stage
// so "stage 0 vs later" remains observable.
func newObsHistory(n int, strategies []core.Strategy) *obsHistory {
	depth := 1
	for _, s := range strategies {
		b, ok := s.(core.BoundedHistory)
		if !ok {
			return &obsHistory{n: n, fullObs: make([][][]int, n), fullUtil: make([][]float64, n)}
		}
		if d := b.HistoryDepth(); d > depth {
			depth = d
		}
	}
	return &obsHistory{
		n:     n,
		depth: depth,
		views: make([][]int, n*depth),
		utils: make([]float64, n*depth),
		slabs: make([][]int, depth),
	}
}

// observed returns node i's view history window for ChooseCW.
func (h *obsHistory) observed(i int) [][]int {
	if h.depth == 0 {
		return h.fullObs[i]
	}
	return h.views[i*h.depth : i*h.depth+h.size]
}

// utilities returns node i's utility history window for ChooseCW.
func (h *obsHistory) utilities(i int) []float64 {
	if h.depth == 0 {
		return h.fullUtil[i]
	}
	return h.utils[i*h.depth : i*h.depth+h.size]
}

// record appends one stage's observations: node i's local view is [own
// CW, neighbor CWs...] under the stage's adjacency. It copies what it
// needs out of adj, so adj may change afterwards. All views are carved
// from a single stage slab; in windowed mode the slab comes from the
// ring and is reused once its stage rolls off. recordRates completes the
// stage.
func (h *obsHistory) record(adj [][]int, profile []int) {
	need := 0
	for i := range adj {
		need += 1 + len(adj[i])
	}
	var slab []int
	if h.depth == 0 {
		slab = make([]int, 0, need)
	} else if slab = h.slabs[h.stage%h.depth]; cap(slab) < need {
		slab = make([]int, 0, need)
	} else {
		slab = slab[:0]
	}
	shift := h.depth > 0 && h.size == h.depth
	if h.depth > 0 && !shift {
		h.size++
	}
	for i := range adj {
		start := len(slab)
		slab = append(slab, profile[i])
		for _, j := range adj[i] {
			slab = append(slab, profile[j])
		}
		local := slab[start:len(slab):len(slab)]
		if h.depth == 0 {
			h.fullObs[i] = append(h.fullObs[i], local)
			continue
		}
		row := h.views[i*h.depth : i*h.depth+h.depth]
		if shift {
			copy(row, row[1:])
			urow := h.utils[i*h.depth : i*h.depth+h.depth]
			copy(urow, urow[1:])
		}
		row[h.size-1] = local
	}
	if h.depth > 0 {
		h.slabs[h.stage%h.depth] = slab
	}
	h.stage++
}

// recordRates completes the stage that record opens: node i's utility
// is its realized payoff rate.
func (h *obsHistory) recordRates(rates []float64) {
	for i, r := range rates {
		if h.depth == 0 {
			h.fullUtil[i] = append(h.fullUtil[i], r)
		} else {
			h.utils[i*h.depth+h.size-1] = r
		}
	}
}
