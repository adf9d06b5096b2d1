// Offline replay: the determinism half of the promotion audit trail.
package continual

import (
	"fmt"

	"parallelspikesim/internal/learn"
	"parallelspikesim/internal/netio"
	"parallelspikesim/internal/network"
)

// Replay reproduces a candidate offline from an audit record's inputs: the
// base checkpoint (weights + trainer progress + network clock), the same
// network configuration, and the in-order example log with each example's
// recorded encode band. Because every stochastic draw in the simulator is a
// pure function of (seed, step counter), restoring the clock restores the
// random sequence itself, so the returned snapshot is bit-identical to the
// candidate the live trainer emitted after the same examples (the
// golden-audit test pins this).
//
// To verify a promoted audit: load the base whose BaseSeq matches, replay
// log[:aud.Examples], and compare PayloadCRC (or raw G/Assignments) against
// the published snapshot.
func Replay(base *netio.Snapshot, netCfg network.Config, lopts learn.Options, log []Example) (*netio.Snapshot, error) {
	if base == nil {
		return nil, fmt.Errorf("continual: replay needs a base checkpoint")
	}
	if base.Trainer == nil {
		return nil, fmt.Errorf("continual: base checkpoint has no trainer section — not a replay anchor")
	}
	net, err := network.New(netCfg)
	if err != nil {
		return nil, fmt.Errorf("continual: replay network: %w", err)
	}
	if err := base.Restore(net); err != nil {
		return nil, fmt.Errorf("continual: replay base weights: %w", err)
	}
	lt, err := learn.New(net, lopts)
	if err != nil {
		return nil, fmt.Errorf("continual: replay trainer: %w", err)
	}
	if err := lt.RestoreState(base.Trainer); err != nil {
		return nil, fmt.Errorf("continual: replay trainer progress: %w", err)
	}
	for i, ex := range log {
		if err := trainOne(lt, ex); err != nil {
			return nil, fmt.Errorf("continual: replaying example %d: %w", i, err)
		}
	}
	return candidateSnapshot(net, lt), nil
}
