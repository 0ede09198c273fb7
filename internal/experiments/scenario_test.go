package experiments

import (
	"reflect"
	"testing"

	"repro/internal/scenario"
)

// TestFig7SpecMatchesExampleFile pins the acceptance contract: the spec
// the registered fig7 harness compiles its Setup from and the curated
// example file are the same scenario, so `ehsim -scenario` on the file
// reproduces the harness's numbers exactly.
func TestFig7SpecMatchesExampleFile(t *testing.T) {
	fromFile, err := scenario.Load("../../examples/scenarios/fig7-rectified-sine-hibernus.json")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fromFile, Fig7Spec()) {
		t.Errorf("example file and Fig7Spec diverged:\nfile: %+v\ncode: %+v", fromFile, Fig7Spec())
	}
}

// TestPortedSpecsCompile keeps the spec-driven experiments compiling
// through the scenario layer.
func TestPortedSpecsCompile(t *testing.T) {
	if _, err := Fig7Spec().Setup(); err != nil {
		t.Errorf("Fig7Spec: %v", err)
	}
	for _, tc := range []struct {
		name  string
		sp    *scenario.Spec
		cases int
	}{
		{"Eq4Spec", Eq4Spec(), 6},
		{"RuntimesSpec", RuntimesSpec(), 5},
	} {
		if err := tc.sp.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		grid := tc.sp.Grid()
		if grid.Size() != tc.cases {
			t.Errorf("%s grid size = %d, want %d", tc.name, grid.Size(), tc.cases)
		}
		for _, c := range grid.Cases() {
			if _, err := tc.sp.SetupAt(c); err != nil {
				t.Errorf("%s case %s: %v", tc.name, c.Name, err)
			}
		}
	}
}
