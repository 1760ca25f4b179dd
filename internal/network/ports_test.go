package network

import (
	"math/rand"
	"testing"
	"testing/quick"
)

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
