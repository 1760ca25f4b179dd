package core

// DeliverAll implements Process, folding the slice in place: no
// Delivery is copied. The same-phase case — what nearly every delivery
// of a sparse round is — runs inline (hear's body, then the quorum
// rule); jumps, stale messages and the ablation go through deliver.
// Skipping maybeDecide on the inline path is sound because decided ⇔
// p ≥ pEnd holds between calls and only a phase change can flip it.
func (d *DAC) DeliverAll(ds []Delivery) {
	for i := range ds {
		dl := &ds[i]
		if dl.Msg.Phase != d.p {
			d.deliver(dl.Port, dl.Msg.Value, dl.Msg.Phase)
			continue
		}
		if d.ne < d.logCap && d.nr+1 < d.quorum { // hear, inlined
			if !d.extend(dl.Port) {
				d.closeRun()
				d.putPort(dl.Port)
			}
			d.nr++
			d.store(dl.Msg.Value)
		} else {
			if d.logging {
				d.materialize()
			}
			if d.mark(dl.Port) {
				d.nr++
				d.store(dl.Msg.Value)
			}
		}
		if d.p < d.pEnd && d.nr >= d.quorum {
			d.advance()
			d.maybeDecide()
		}
	}
}

// DeliverAll implements Process as the in-order, in-place fold of
// deliver.
func (d *DBAC) DeliverAll(ds []Delivery) {
	for i := range ds {
		d.deliver(ds[i].Port, ds[i].Msg.Value, ds[i].Msg.Phase)
	}
}

// DeliverAll implements Process as the in-order, in-place fold of
// deliver (and from there the inner *DBAC's).
func (pb *DBACPiggyback) DeliverAll(ds []Delivery) {
	for i := range ds {
		pb.deliver(ds[i].Port, &ds[i].Msg)
	}
}
