package sim

import (
	"anondyn/internal/core"
)

// execView is the start-of-round state window handed to adversaries and
// Byzantine strategies. It satisfies both adversary.View and fault.View
// (structurally identical interfaces). It points at the engine's own
// Config, population and Byzantine flags so engine recycling re-targets
// it without reallocating the snapshot buffer.
type execView struct {
	cfg   *Config
	pop   core.Population
	isByz []bool
	round int
	snaps []core.Snapshot
}

func newExecView(cfg *Config, pop core.Population, isByz []bool) *execView {
	v := &execView{snaps: make([]core.Snapshot, cfg.N)}
	v.reset(cfg, pop, isByz)
	return v
}

// reset re-targets the view for a fresh execution, reusing the snapshot
// buffer when the network size is unchanged.
func (v *execView) reset(cfg *Config, pop core.Population, isByz []bool) {
	v.cfg = cfg
	v.pop = pop
	v.isByz = isByz
	v.round = 0
	if len(v.snaps) != cfg.N {
		v.snaps = make([]core.Snapshot, cfg.N)
	} else {
		clear(v.snaps)
	}
}

// refresh captures every node's public state at the start of round t.
// Crashed nodes keep their last observed value/phase with Crashed set;
// Byzantine nodes expose only the Byzantine flag (their "state" is
// whatever they choose to claim).
func (v *execView) refresh(t int) {
	v.round = t
	for i := 0; i < v.cfg.N; i++ {
		if v.isByz[i] {
			v.snaps[i] = core.Snapshot{Byzantine: true}
			continue
		}
		s := core.Snap(v.pop, i)
		s.Crashed = !v.cfg.Crashes.Alive(t, i)
		v.snaps[i] = s
	}
}

// N implements adversary.View and fault.View.
func (v *execView) N() int { return v.cfg.N }

// Snapshot implements adversary.View and fault.View.
func (v *execView) Snapshot(i int) core.Snapshot { return v.snaps[i] }
