package core

// BulkDeliverer is an optional Process extension: a receiver that can
// consume one round's deliveries as a single slice. The engines probe
// for it once per Reset and hand each receiver its whole in-edge batch
// in ONE dynamic call per round instead of one per edge — at sparse
// scale the per-edge interface dispatch is a measurable floor (~14 ns)
// that this seam amortizes, because the fold inside dispatches
// statically on the concrete type.
//
// The contract is fold equivalence: DeliverAll(ds) must leave the
// process in exactly the state that calling Deliver(ds[0]),
// Deliver(ds[1]), … in slice order would — asserted for every
// implementation by the property tests. The slice is engine-owned
// scratch; implementations must not retain it.
type BulkDeliverer interface {
	DeliverAll(ds []Delivery)
}

// DeliverAll implements BulkDeliverer, folding the slice in place: no
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

// DeliverAll implements BulkDeliverer as the in-order, in-place fold of
// deliver.
func (d *DBAC) DeliverAll(ds []Delivery) {
	for i := range ds {
		d.deliver(ds[i].Port, ds[i].Msg.Value, ds[i].Msg.Phase)
	}
}

// DeliverAll implements BulkDeliverer as the in-order, in-place fold of
// deliver (and from there the inner *DBAC's).
func (pb *DBACPiggyback) DeliverAll(ds []Delivery) {
	for i := range ds {
		pb.deliver(ds[i].Port, &ds[i].Msg)
	}
}

var (
	_ BulkDeliverer = (*DAC)(nil)
	_ BulkDeliverer = (*DBAC)(nil)
	_ BulkDeliverer = (*DBACPiggyback)(nil)
)
