package workload

import (
	"math"
	"testing"
)

func TestConstant(t *testing.T) {
	tr := Constant(0.35)
	for _, x := range []float64{-5, 0, 100, 1e6} {
		if tr(x) != 0.35 {
			t.Errorf("Constant(0.35)(%v) = %v", x, tr(x))
		}
	}
}

func TestTriangleShape(t *testing.T) {
	tr := Triangle(0.2, 0.8, 600)
	if got := tr(0); got != 0.2 {
		t.Errorf("start = %v, want 0.2", got)
	}
	if got := tr(300); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("midpoint = %v, want 0.8", got)
	}
	if got := tr(600); got != 0.2 {
		t.Errorf("end = %v, want 0.2", got)
	}
	if got := tr(150); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("quarter = %v, want 0.5", got)
	}
	if got := tr(450); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("three-quarter = %v, want 0.5", got)
	}
	if tr(-10) != 0.2 || tr(700) != 0.2 {
		t.Error("out-of-range times should hold the boundary value")
	}
}

func TestRampShape(t *testing.T) {
	tr := Ramp(0.2, 0.5, 400)
	if tr(0) != 0.2 || tr(400) != 0.5 || tr(1000) != 0.5 {
		t.Error("ramp endpoints wrong")
	}
	if got := tr(200); math.Abs(got-0.35) > 1e-12 {
		t.Errorf("ramp midpoint = %v, want 0.35", got)
	}
	prev := -1.0
	for x := 0.0; x <= 400; x += 10 {
		v := tr(x)
		if v < prev {
			t.Fatalf("ramp decreased at %v", x)
		}
		prev = v
	}
}

func TestDiurnalShape(t *testing.T) {
	tr := Diurnal(0.2, 1.0, 86400)
	if got := tr(0); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("trough = %v, want 0.2", got)
	}
	if got := tr(43200); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("midday = %v, want 1.0", got)
	}
	if got := tr(86400); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("full period = %v, want 0.2", got)
	}
	for x := 0.0; x < 86400; x += 3600 {
		v := tr(x)
		if v < 0.2-1e-9 || v > 1.0+1e-9 {
			t.Fatalf("diurnal out of range at %v: %v", x, v)
		}
	}
}

func TestSteps(t *testing.T) {
	tr := Steps([]float64{0.2, 0.5, 0.8}, 10)
	cases := map[float64]float64{0: 0.2, 9.9: 0.2, 10: 0.5, 25: 0.8, 30: 0.2, -1: 0.2}
	for x, want := range cases {
		if got := tr(x); got != want {
			t.Errorf("Steps(%v) = %v, want %v", x, got, want)
		}
	}
	if got := Steps(nil, 10)(5); got != 0 {
		t.Errorf("empty Steps = %v, want 0", got)
	}
}

func TestStairMatchesStepsAndDeclaresBreaks(t *testing.T) {
	s := Stair{Levels: []float64{0.2, 0.5, 0.3}, StepDurS: 10}
	tr := s.Trace()
	// In the cluster engine's sampling convention step s reads tr(s+1);
	// the value at step s may differ from step s-1 only at declared
	// breaks. This is the exact contract TraceBreaks relies on.
	breaks := map[int]bool{}
	for _, b := range s.BreakSteps(60) {
		breaks[b] = true
	}
	prev := tr(1)
	for step := 1; step < 60; step++ {
		v := tr(float64(step + 1))
		if v != prev && !breaks[step] {
			t.Fatalf("trace moved at undeclared step %d (%v -> %v)", step, prev, v)
		}
		prev = v
	}
	// Step 59 reads tr(60) — the first second of the next tread — so the
	// last in-horizon edge is declared too.
	want := []int{0, 9, 19, 29, 39, 49, 59}
	got := s.BreakSteps(60)
	if len(got) != len(want) {
		t.Fatalf("BreakSteps = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BreakSteps = %v, want %v", got, want)
		}
	}
	if tr(5) != 0.2 || tr(15) != 0.5 || tr(25) != 0.3 || tr(35) != 0.2 {
		t.Fatal("stair levels wrong")
	}
	// Degenerate tread width clamps to 1 s.
	if b := (Stair{Levels: []float64{1}, StepDurS: 0}).BreakSteps(3); len(b) != 3 {
		t.Fatalf("zero-width stair breaks = %v, want one per second", b)
	}
}
