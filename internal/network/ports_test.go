package network

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// NumberingFromPerm builds a numbering from an explicit permutation,
// where perm[node] = port. It validates bijectivity. It is the oracle the
// tests hold the seeded numberings against.
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

func TestIdentityNumbering(t *testing.T) {
	p := IdentityNumbering(5)
	for i := 0; i < 5; i++ {
		if p.Port(i) != i || p.Node(i) != i {
			t.Errorf("identity numbering broken at %d", i)
		}
	}
	if p.N() != 5 {
		t.Errorf("N = %d, want 5", p.N())
	}
}

func TestRandomNumberingIsBijection(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(30) + 1
		p := RandomNumbering(n, rng)
		seen := make([]bool, n)
		for node := 0; node < n; node++ {
			port := p.Port(node)
			if port < 0 || port >= n {
				t.Fatalf("port %d out of range", port)
			}
			if seen[port] {
				t.Fatalf("port %d assigned twice", port)
			}
			seen[port] = true
			if p.Node(port) != node {
				t.Fatalf("inverse broken: Node(Port(%d)) = %d", node, p.Node(port))
			}
		}
	}
}

func TestNumberingFromPerm(t *testing.T) {
	p, err := NumberingFromPerm([]int{2, 0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if p.Port(0) != 2 || p.Node(2) != 0 {
		t.Error("explicit permutation not honored")
	}
	if _, err := NumberingFromPerm([]int{0, 0, 1}); err == nil {
		t.Error("duplicate port accepted")
	}
	if _, err := NumberingFromPerm([]int{0, 3, 1}); err == nil {
		t.Error("out-of-range port accepted")
	}
}

func TestPortsCollections(t *testing.T) {
	ps := IdentityPorts(4)
	if len(ps) != 4 {
		t.Fatalf("len = %d, want 4", len(ps))
	}
	rng := rand.New(rand.NewSource(5))
	rp := RandomPorts(4, rng)
	if len(rp) != 4 {
		t.Fatalf("len = %d, want 4", len(rp))
	}
	for i, p := range rp {
		if p.N() != 4 {
			t.Errorf("numbering %d has N=%d", i, p.N())
		}
	}
}

// TestNumberingQuick: NumberingFromPerm accepts exactly the
// permutations, and Port/Node stay inverse.
func TestNumberingQuick(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(6))}
	property := func(seed int64, nRaw uint8) bool {
		n := int(nRaw)%40 + 1
		perm := rand.New(rand.NewSource(seed)).Perm(n)
		p, err := NumberingFromPerm(perm)
		if err != nil {
			return false
		}
		for node := 0; node < n; node++ {
			if p.Node(p.Port(node)) != node {
				return false
			}
		}
		return true
	}
	if err := quick.Check(property, cfg); err != nil {
		t.Error(err)
	}
}
