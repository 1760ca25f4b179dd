package chaos

import "testing"

// TestStreamGolden pins the chaos stream's draw sequence — the v1
// draw-order contract in stream.go. If any of these values change,
// committed storm specs replay different storms: that is a contract
// break and requires a new stream version, not a test update.
func TestStreamGolden(t *testing.T) {
	s := newStream(mix(42, saltStorm))
	wantNext := []uint64{0x70923fff0bdd0f6a, 0x71f250ee13b7113a, 0xc42b96d4261e75c4, 0xe301de944eac16e2}
	for i, want := range wantNext {
		if got := s.next(); got != want {
			t.Errorf("storm stream draw %d = %#016x, want %#016x", i, got, want)
		}
	}
	s2 := newStream(mix2(42, 7, saltStorm))
	wantMix2 := []uint64{0xb06d7c9a287a6830, 0x7d5d5013127efb68}
	for i, want := range wantMix2 {
		if got := s2.next(); got != want {
			t.Errorf("mix2 stream draw %d = %#016x, want %#016x", i, got, want)
		}
	}
	f := newStream(mix(1, saltFleet))
	wantFloat := []float64{0.93023630731952911, 0.6453360210446426, 0.78741600967010716}
	for i, want := range wantFloat {
		if got := f.float64(); got != want {
			t.Errorf("fleet stream float %d = %.17g, want %.17g", i, got, want)
		}
	}
	if got := newStream(mix(9, saltInputs)).intn(100); got != 70 {
		t.Errorf("input stream intn(100) = %d, want 70", got)
	}
}

// TestStreamIndependence: the four salts give one seed four unrelated
// streams, and different run seeds give different storm streams.
func TestStreamIndependence(t *testing.T) {
	seeds := map[string]uint64{
		"fleet":  mix(5, saltFleet),
		"storm":  mix(5, saltStorm),
		"inputs": mix(5, saltInputs),
		"starve": mix(5, saltStarve),
	}
	seen := map[uint64]string{}
	for name, s := range seeds {
		if prev, dup := seen[s]; dup {
			t.Errorf("salt %s collides with %s", name, prev)
		}
		seen[s] = name
	}
	if mix2(5, 0, saltStorm) == mix2(5, 1, saltStorm) {
		t.Error("storm stream seed ignores the run seed")
	}
	if mix2(5, 1, saltStorm) == mix2(6, 1, saltStorm) {
		t.Error("storm stream seed ignores the stress seed")
	}
}
