package sim

import (
	"anondyn/internal/core"
	"anondyn/internal/network"
	"anondyn/internal/trace"
	"anondyn/internal/wire"
)

// referenceStep executes one round of e the way §II-A states it, with
// none of the production shortcuts: the view is captured eagerly for
// every node, E(t) is generated on the spot, each receiver walks all n
// ports probing the edge set, every delivery is its own DeliverAll
// call (exact by fold equivalence), and
// the suppressed-message count is a pairwise Has probe (lostPairwise).
// It reuses
// the engine's open/close round halves — what the oracle pins is
// everything in between. Every execution Step, Run and RunRounds can
// select must match it bit for bit (Results and, when a Recorder is
// attached, the event stream).
func referenceStep(e *Engine) {
	t := e.round
	e.view.refresh(t)
	edges := e.roundEdges(t)
	e.openRound(t, edges)

	delivered := 0
	for v := 0; v < e.cfg.N; v++ {
		if e.isByz[v] || t >= e.crashRound[v] {
			continue
		}
		proc := e.cfg.Procs[v]
		ds := gatherPortLoop(e, t, v, edges)
		if e.cfg.ShuffleDelivery {
			shuffleDeliveries(ds, e.cfg.ShuffleSeed, t, v)
		}
		delivered += len(ds)
		for i := range ds {
			d := &ds[i]
			if e.hooks.Recorder != nil {
				e.hooks.Recorder.Record(trace.Event{
					Kind: trace.KindDeliver, Round: t, Node: v, Port: d.Port,
					Value: d.Msg.Value, Phase: d.Msg.Phase,
				})
			}
			before := proc.Phase()
			proc.DeliverAll(ds[i : i+1])
			if after := proc.Phase(); after != before {
				e.notePhase(v, before, after, proc.Value(), t)
			}
		}
		proc.EndRound()
		e.noteDecision(v, t)
	}
	e.closeRound(t, delivered, lostPairwise(e, t, edges))
}

// lostPairwise is the reference suppressed-message count, straight from
// its definition: every (sender, receiver) pair with u ≠ v and no link
// u→v, where u sends in round t when it is Byzantine or still alive at
// the round's start (its crash round still broadcasts), and v is
// eligible when it is not Byzantine and survives the whole round. O(n²)
// Has probes; it shares nothing with the production gathers' count.
func lostPairwise(e *Engine, t int, edges *network.EdgeSet) int {
	lost := 0
	for v := 0; v < e.cfg.N; v++ {
		if e.isByz[v] || t >= e.crashRound[v] {
			continue
		}
		for u := 0; u < e.cfg.N; u++ {
			sends := e.isByz[u] || t <= e.crashRound[u]
			if u != v && sends && !edges.Has(u, v) {
				lost++
			}
		}
	}
	return lost
}

// gatherPortLoop is the reference gather: walk all n ports in ascending
// order and probe the edge set per sender — O(n) per receiver, delivery
// order by construction. Each sender's message comes from refMessage and
// its size from wire.Size, not from the engine's round scratch. It
// appends to the engine's gather buffer and adds the byte and oversize
// counters to the Result.
func gatherPortLoop(e *Engine, t, v int, edges *network.EdgeSet) []core.Delivery {
	ds := e.deliveries[:0]
	numbering := e.ports[v]
	for port := 0; port < e.cfg.N; port++ {
		u := numbering.Node(port)
		if u == v || !edges.Has(u, v) {
			continue
		}
		m := refMessage(e, t, u, v)
		if m == nil {
			continue
		}
		size := wire.Size(*m)
		if limit := e.cfg.MaxMessageBytes; limit > 0 && size > limit {
			e.result.MessagesOversized++
			continue
		}
		ds = append(ds, core.Delivery{Port: port, Msg: *m})
		if e.cfg.AccountBandwidth {
			e.result.BytesDelivered += size
		}
	}
	return ds
}

// refMessage is the message sender u directs at receiver v in round t,
// or nil when u is silent towards v, read off the configuration: a
// Byzantine sender's message for v, as its strategy wrote it this
// round; otherwise u's broadcast, unless u's crash (from the crash
// schedule) has passed or, in its crash round, does not allow the final
// delivery to v. It reads none of the engine's dense crash state.
func refMessage(e *Engine, t, u, v int) *core.Message {
	if _, byz := e.cfg.Byzantine[u]; byz {
		return e.byzOut[u][v]
	}
	if c, crashes := e.cfg.Crashes[u]; crashes && (t > c.Round || t == c.Round && !c.AllowsFinalDelivery(v)) {
		return nil
	}
	return &e.broadcasts[u]
}

// referenceRun mirrors Engine.Run on the oracle.
func referenceRun(e *Engine) *Result {
	for e.round < e.maxRounds && !e.allDecided() {
		referenceStep(e)
	}
	return e.finish()
}

// referenceRunRounds mirrors Engine.RunRounds on the oracle.
func referenceRunRounds(e *Engine, k int) *Result {
	for i := 0; i < k; i++ {
		referenceStep(e)
	}
	return e.finish()
}
