package network

import (
	"fmt"
	"math/rand"
)

// Numbering is one node's local port numbering: a bijection P_i from node
// IDs to ports {0, …, n−1} (§II-A; the paper uses 1…n, we use 0-based).
// The numbering is private to the node — two nodes may assign different
// ports to the same sender — and fixed for the whole execution, so a node
// can tell two senders apart and track repeated messages from one sender,
// but nodes can never translate ports into global identities.
type Numbering struct {
	toPort   []int // toPort[node] = port
	toNode   []int // toNode[port] = node
	identity bool  // toPort is the identity permutation (cached at build)
}

// IdentityNumbering maps node j to port j. Handy in tests; the algorithms
// must not behave differently under any other bijection (asserted by the
// permutation-invariance tests).
func IdentityNumbering(n int) Numbering {
	p := Numbering{toPort: make([]int, n), toNode: make([]int, n), identity: true}
	for i := 0; i < n; i++ {
		p.toPort[i] = i
		p.toNode[i] = i
	}
	return p
}

// RandomNumbering draws a uniformly random bijection using rng.
func RandomNumbering(n int, rng *rand.Rand) Numbering {
	perm := rng.Perm(n)
	p := Numbering{toPort: perm, toNode: make([]int, n)}
	for node, port := range perm {
		p.toNode[port] = node
	}
	p.identity = isIdentityPerm(perm)
	return p
}

// NumberingFromPerm builds a numbering from an explicit permutation,
// where perm[node] = port, and validates that it is a bijection. The
// tests hold the seeded numberings against it and build conjugated
// numberings (π(v) gives π(u) the port v gave u) with it.
func NumberingFromPerm(perm []int) (Numbering, error) {
	n := len(perm)
	toNode := make([]int, n)
	seen := make([]bool, n)
	for node, port := range perm {
		if port < 0 || port >= n {
			return Numbering{}, fmt.Errorf("network: port %d out of range [0,%d)", port, n)
		}
		if seen[port] {
			return Numbering{}, fmt.Errorf("network: duplicate port %d", port)
		}
		seen[port] = true
		toNode[port] = node
	}
	toPort := make([]int, n)
	copy(toPort, perm)
	return Numbering{toPort: toPort, toNode: toNode, identity: isIdentityPerm(perm)}, nil
}

func isIdentityPerm(perm []int) bool {
	for i, p := range perm {
		if p != i {
			return false
		}
	}
	return true
}

// N returns the size of the numbering.
func (p Numbering) N() int { return len(p.toPort) }

// Port returns the port this node uses for the given sender.
func (p Numbering) Port(node int) int { return p.toPort[node] }

// PortOf is the delivery core's sender→port lookup: identical to Port,
// named for the hot path where the engines map each gathered in-neighbor
// to its receiver-local port in O(1) off the dense toPort slice, keeping
// the whole gather at O(in-degree).
func (p Numbering) PortOf(node int) int { return p.toPort[node] }

// IsIdentity reports whether the numbering is the identity bijection
// (node j ↔ port j), cached at construction. The engines use it to skip
// the port-order sort: ascending-node in-neighbor iteration already IS
// ascending-port order under the identity numbering, which is the
// default for every simulation without explicit Ports.
func (p Numbering) IsIdentity() bool { return p.identity }

// Node returns the sender a port refers to. Only the simulation engine
// may call this — the algorithms themselves never learn the mapping.
func (p Numbering) Node(port int) int { return p.toNode[port] }

// Ports is the collection of every node's numbering for one execution.
type Ports []Numbering

// IdentityPorts gives every node the identity numbering. Numberings are
// immutable after construction, so all n entries share one — building
// the default ports costs O(n) instead of O(n²) and two allocations
// instead of 2n.
func IdentityPorts(n int) Ports {
	ps := make(Ports, n)
	id := IdentityNumbering(n)
	for i := range ps {
		ps[i] = id
	}
	return ps
}

// RandomPorts draws an independent random numbering per node.
func RandomPorts(n int, rng *rand.Rand) Ports {
	ps := make(Ports, n)
	for i := range ps {
		ps[i] = RandomNumbering(n, rng)
	}
	return ps
}
