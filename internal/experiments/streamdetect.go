package experiments

import (
	"context"
	"fmt"
	"strings"

	"selfishmac/internal/core"
	"selfishmac/internal/macsim"
	"selfishmac/internal/phy"
	"selfishmac/internal/plot"
	"selfishmac/internal/replicate"
	"selfishmac/internal/stream"
)

// streamMix is one heterogeneous population: a base of honest TFT-style
// conformers at Wc* with specific nodes pinned to cheating CWs.
type streamMix struct {
	key    string
	label  string
	nodes  []int // cheater node indices (sorted, deterministic)
	cheats []int // cheater CWs, parallel to nodes
}

// streamDetectWindow is the estimation window width in virtual slots. At
// n=10 and Wc*=166 an honest node attempts in ~18 of 1500 slots, so a
// Beta=0.5 flag needs roughly double the honest attempt rate (~3.5σ of
// the window's Poisson noise — rare) while a Wc*/8 malicious node lands
// an order of magnitude under the threshold. The window must also stay
// short in *wall time*: a short-sighted W=1 hog makes nearly every
// virtual slot a busy slot, so its runs cover few slots per simulated
// second, and the window has to close several times even there.
const streamDetectWindow = 1500

// StreamingDetection (D4) runs the online detector of internal/stream
// against heterogeneous populations: every node streams through a
// stream.Monitor attached to the simulator's observer hook, and each
// (mix, Beta) cell reports how fast cheaters are flagged (virtual slots
// to first flag, censored at the run length when undetected) and how
// accurately (TPR = fraction of cheater nodes ever flagged, FPR = honest
// flag events per honest node-window). Where D1 inspects one batch
// observation after the fact, D4 measures the latency/accuracy trade-off
// the Beta tolerance buys when detection happens online, window by
// window, replicated to a CI95 target through internal/replicate.
func StreamingDetection(ctx context.Context, s Settings) (*Report, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	const n = 10
	g, err := core.NewGame(core.DefaultConfig(n, phy.Basic))
	if err != nil {
		return nil, err
	}
	ne, err := g.FindEfficientNE()
	if err != nil {
		return nil, err
	}
	myopic, err := g.ShortSightedBest(ne, 0, 1)
	if err != nil {
		return nil, err
	}
	malW := max(1, ne.WStar/8)
	slyW := max(1, int(0.8*float64(ne.WStar)))
	mixes := []streamMix{
		{"honest", "all honest", nil, nil},
		{"malicious", fmt.Sprintf("1 malicious (W=%d)", malW), []int{0}, []int{malW}},
		{"shortsighted", fmt.Sprintf("1 short-sighted (W=%d)", myopic.WBest), []int{0}, []int{myopic.WBest}},
		{"intelligent", fmt.Sprintf("1 intelligent (W=%d)", slyW), []int{0}, []int{slyW}},
		{"mixed", fmt.Sprintf("malicious+short-sighted+intelligent (W=%d,%d,%d)", malW, myopic.WBest, slyW),
			[]int{0, 1, 2}, []int{malW, myopic.WBest, slyW}},
	}
	betas := []float64{0.5, 0.7, 0.9}

	p := g.Config().PHY
	tm, err := p.Timing(g.Config().Mode)
	if err != nil {
		return nil, err
	}
	tb := plot.Table{
		Title: fmt.Sprintf("Streaming detection: population mixes vs Beta (n=%d, Wc*=%d, window=%d slots)",
			n, ne.WStar, streamDetectWindow),
		Headers: []string{"mix", "beta", "reps", "latency (slots)", "ci95", "TPR", "FPR"},
	}
	rep := &Report{ID: "D4", Title: "Streaming misbehavior detection over population mixes"}
	minReps, maxReps, relCI := s.replicateBounds()
	var mixCol, betaCol, latCol, latCICol, tprCol, fprCol, repsCol []float64

	for mi, mix := range mixes {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		profile := make([]int, n)
		for i := range profile {
			profile[i] = ne.WStar
		}
		for k, node := range mix.nodes {
			profile[node] = mix.cheats[k]
		}
		cheater := make([]bool, n)
		for _, node := range mix.nodes {
			cheater[node] = true
		}
		for _, beta := range betas {
			simCfg := macsim.Config{
				Timing:   tm,
				MaxStage: p.MaxBackoffStage,
				CW:       profile, // the engine clones its config slices
				Duration: s.SingleHopSimTime,
				Gain:     g.Config().Gain,
				Cost:     g.Config().Cost,
			}
			monCfg := stream.Config{
				Nodes:       n,
				WindowSlots: streamDetectWindow,
				MaxStage:    p.MaxBackoffStage,
				ExpectedCW:  ne.WStar,
				Beta:        beta,
			}
			rres, err := replicate.RunContext(ctx, replicate.Plan{
				BaseSeed:     s.Seed,
				Stream:       fmt.Sprintf("D4.%s.beta%g", mix.key, beta),
				Metrics:      3, // latency, TPR, FPR; latency drives adaptive stopping
				RelTolerance: relCI,
				MinReps:      minReps,
				MaxReps:      maxReps,
				Workers:      s.workerCount(),
			}, func() (replicate.Replicator, error) {
				return newStreamDetectRep(simCfg, monCfg, cheater)
			})
			if err != nil {
				return nil, err
			}
			lat, tpr, fpr := rres.Mean(0), rres.Mean(1), rres.Mean(2)
			tb.MustAddRow(mix.key, fmt.Sprintf("%g", beta), fmt.Sprintf("%d", rres.Reps),
				fmt.Sprintf("%.0f", lat), fmt.Sprintf("%.0f", rres.CI95(0)),
				fmt.Sprintf("%.2f", tpr), fmt.Sprintf("%.4f", fpr))
			mk := fmt.Sprintf("%s_b%02.0f", mix.key, beta*100)
			rep.Metric(mk+"_latency_slots", lat)
			rep.Metric(mk+"_latency_ci95", rres.CI95(0))
			rep.Metric(mk+"_tpr", tpr)
			rep.Metric(mk+"_fpr", fpr)
			rep.Metric(mk+"_reps", float64(rres.Reps))
			mixCol = append(mixCol, float64(mi))
			betaCol = append(betaCol, beta)
			latCol = append(latCol, lat)
			latCICol = append(latCICol, rres.CI95(0))
			tprCol = append(tprCol, tpr)
			fprCol = append(fprCol, fpr)
			repsCol = append(repsCol, float64(rres.Reps))
		}
	}

	var text strings.Builder
	text.WriteString(tb.Render())
	text.WriteString("\nmixes:")
	for mi, mix := range mixes {
		fmt.Fprintf(&text, " [%d] %s = %s;", mi, mix.key, mix.label)
	}
	text.WriteString("\nreading: blatant cheaters (malicious, short-sighted) are flagged within\n")
	text.WriteString("the first window at every tolerance; the intelligent cheater sitting\n")
	text.WriteString("just under Wc* is only separable at high Beta, where honest windows\n")
	text.WriteString("start tripping the threshold too — Beta trades detection coverage\n")
	text.WriteString("against false alarms, and latency against selectivity.\n")
	rep.Text = text.String()
	rep.Metric("wcstar", float64(ne.WStar))
	rep.Metric("malicious_cw", float64(malW))
	rep.Metric("shortsighted_cw", float64(myopic.WBest))
	rep.Metric("intelligent_cw", float64(slyW))

	var csv strings.Builder
	if err := plot.WriteCSV(&csv, []string{"mix", "beta", "latency_slots", "latency_ci95", "tpr", "fpr", "reps"},
		mixCol, betaCol, latCol, latCICol, tprCol, fprCol, repsCol); err != nil {
		return nil, err
	}
	rep.Artifacts = append(rep.Artifacts, Artifact{Name: "d4_stream_detection.csv", Content: csv.String()})
	return rep, nil
}

// streamDetectRep is the per-worker replicator: one reusable engine with
// a monitor attached to its observer hook. Reset + Run pairs replay the
// cell's configuration under each replication seed at zero steady-state
// allocations (the replicate pool builds one per worker).
type streamDetectRep struct {
	eng     *macsim.Engine
	mon     *stream.Monitor
	cheater []bool
}

func newStreamDetectRep(simCfg macsim.Config, monCfg stream.Config, cheater []bool) (*streamDetectRep, error) {
	mon, err := stream.NewMonitor(monCfg)
	if err != nil {
		return nil, err
	}
	simCfg.Observer = mon
	eng, err := macsim.NewEngine(simCfg)
	if err != nil {
		return nil, err
	}
	return &streamDetectRep{eng: eng, mon: mon, cheater: cheater}, nil
}

// Replicate runs one monitored simulation and reports
// [latency slots, TPR, FPR]. Latency is the earliest first-flag slot over
// the cheater nodes, censored at the run's total slot count when no
// cheater was flagged, and 0 for the all-honest mix (nothing to detect).
func (r *streamDetectRep) Replicate(seed uint64, out []float64) error {
	r.mon.Reset()
	r.eng.Reset(seed)
	res := r.eng.Run()
	r.mon.Finish(res.Slots)

	cheaters, detected := 0, 0
	latency := float64(res.Slots)
	var honestFlags, honest int64
	for i, cheat := range r.cheater {
		if cheat {
			cheaters++
			if s := r.mon.FirstFlagSlot(i); s >= 0 {
				detected++
				if float64(s) < latency {
					latency = float64(s)
				}
			}
			continue
		}
		honest++
		honestFlags += r.mon.NodeFlags(i)
	}
	if cheaters == 0 {
		out[0], out[1] = 0, 1
	} else {
		out[0] = latency
		out[1] = float64(detected) / float64(cheaters)
	}
	if w := r.mon.Windows(); w > 0 && honest > 0 {
		out[2] = float64(honestFlags) / float64(w*honest)
	} else {
		out[2] = 0
	}
	return nil
}
