package search

import (
	"fmt"

	"selfishmac/internal/core"
)

// AnalyticEnv measures payoffs exactly from the analytic game model with
// perfect message delivery: every broadcast Ready/StartSearch sets all
// follower CWs, and Announce sets every CW; the leader's payoff is
// computed from the resulting (possibly heterogeneous) profile.
type AnalyticEnv struct {
	game   *core.Game
	leader int
	cw     []int
}

// NewAnalyticEnv builds an environment of game.N() nodes, all starting at
// CW w0, with the given leader index.
func NewAnalyticEnv(game *core.Game, leader, w0 int) (*AnalyticEnv, error) {
	if game == nil {
		return nil, ErrNoEnv
	}
	if leader < 0 || leader >= game.N() {
		return nil, fmt.Errorf("search: leader %d outside [0, %d)", leader, game.N())
	}
	cw := make([]int, game.N())
	for i := range cw {
		cw[i] = w0
	}
	return &AnalyticEnv{game: game, leader: leader, cw: cw}, nil
}

// Broadcast implements Env with perfect delivery: every node receives
// msg as DeliverTo applies it.
func (e *AnalyticEnv) Broadcast(msg Message) {
	for i := range e.cw {
		e.DeliverTo(i, msg)
	}
}

// LeaderPayoff implements Env.
func (e *AnalyticEnv) LeaderPayoff(w int) (float64, error) {
	e.cw[e.leader] = w
	us, err := e.game.ProfileUtilities(e.cw)
	if err != nil {
		return 0, err
	}
	return us[e.leader], nil
}

// Profile returns a copy of the nodes' current CW values.
func (e *AnalyticEnv) Profile() []int { return append([]int(nil), e.cw...) }

// NumNodes returns the number of nodes in the environment.
func (e *AnalyticEnv) NumNodes() int { return len(e.cw) }

// LeaderID returns the current leader index.
func (e *AnalyticEnv) LeaderID() int { return e.leader }

// DeliverTo delivers msg to a single node, bypassing the broadcast
// medium. StartSearch and Ready set a follower's CW. Announce sets any
// node's CW, the leader's included: §V.C ends with every node that hears
// the announcement adopting W. faults.FaultyEnv uses it for per-follower
// drop.
func (e *AnalyticEnv) DeliverTo(node int, msg Message) {
	if node < 0 || node >= len(e.cw) {
		return
	}
	switch msg.Type {
	case Announce:
		e.cw[node] = msg.W
	case StartSearch, Ready:
		if node != e.leader {
			e.cw[node] = msg.W
		}
	}
}

// SetLeader promotes node to leader (deputy failover). The old leader's
// CW keeps its last measured value; subsequent LeaderPayoff calls measure
// the new leader.
func (e *AnalyticEnv) SetLeader(node int) error {
	if node < 0 || node >= len(e.cw) {
		return fmt.Errorf("search: leader %d outside [0, %d)", node, len(e.cw))
	}
	e.leader = node
	return nil
}

var _ Env = (*AnalyticEnv)(nil)
