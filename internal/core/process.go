package core

// Process is the deterministic state machine a fault-free (or
// crash-faulty, until it crashes) node runs. The simulation engine drives
// a network's processes through a Population (PerNode adapts any
// []Process) with the synchronous-round protocol of §II-A:
//
//  1. Broadcast() is called once at the top of each round; the returned
//     message is handed to the message adversary for delivery.
//  2. DeliverAll() receives the messages that the adversary's edge set
//     E(t) actually delivers this round, each tagged with the
//     receiver-local port. Self-delivery is NOT routed through it — the
//     algorithms model the reliable self-channel internally (R[i]=1,
//     own-value stores), exactly as Algorithm 1/2 initialize it.
//  3. EndRound() is called after all deliveries of the round.
//
// Implementations must be deterministic functions of their input and the
// delivery sequence; the model admits only deterministic algorithms.
type Process interface {
	// Broadcast returns the message ⟨v, p⟩ this node sends in the current
	// round (Algorithm 1/2, line 2).
	Broadcast() Message

	// DeliverAll processes received messages in slice order, each as the
	// for-each body of Algorithm 1 lines 4–15 / Algorithm 2 lines 4–11.
	// The engine hands a receiver its whole round in one call (one
	// dynamic dispatch per receiver, not per edge) or, when an observer
	// watches every delivery, one message per call. So a slice must fold
	// exactly as its entries delivered one at a time would (asserted by
	// TestDeliverAllFoldEquivalenceProperty). The slice is engine-owned
	// scratch; implementations must not retain it.
	DeliverAll(ds []Delivery)

	// EndRound marks the end of the communication round. DAC/DBAC are
	// edge-triggered and do nothing here, but baselines that gather a
	// whole round's messages before updating need the hook.
	EndRound()

	// Output reports whether the node has decided (reached p_end) and, if
	// so, the decided value. Once decided, the value never changes even
	// though the node keeps participating in the protocol.
	Output() (float64, bool)

	// Phase exposes the node's current phase index p_i (for adversaries,
	// metrics, and invariant checkers; adversaries in the model may read
	// node states, §II-A).
	Phase() int

	// Value exposes the node's current state value v_i (same purpose).
	Value() float64

	// Reinit returns the node to its freshly-constructed state with a new
	// input, keeping its structural parameters (n, pEnd, quorum, self
	// port). It lets the scenario run path reuse one set of processes
	// across a whole Monte-Carlo batch instead of reallocating them per
	// seed; a Reinit process must be indistinguishable from a newly
	// constructed one (the recycle tests assert byte-identical
	// executions). The caller validates the input first, as the
	// constructor would.
	Reinit(input float64)
}

// Snapshot is a read-only view of a process's public state, handed to
// adaptive adversaries and recorded in traces.
type Snapshot struct {
	// Phase is the node's phase index at the start of the round.
	Phase int
	// Value is the node's state value at the start of the round.
	Value float64
	// Decided reports whether the node has produced its output.
	Decided bool
	// Crashed reports whether the node has crashed (crash-fault model).
	Crashed bool
	// Byzantine reports whether the node is Byzantine in this execution.
	Byzantine bool
}

// Snap captures node i's Snapshot from its population.
func Snap(pop Population, i int) Snapshot {
	_, decided := pop.Output(i)
	return Snapshot{Phase: pop.Phase(i), Value: pop.Value(i), Decided: decided}
}
