package checkpoint

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{SCP: "SCP", CCP: "CCP", CSCP: "CSCP", Kind(9): "Kind(9)"} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestCostsValidate(t *testing.T) {
	if err := SCPSetting().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := CCPSetting().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Costs{
		{Store: -1, Compare: 1},
		{Store: 1, Compare: -1},
		{Store: 1, Compare: 1, Rollback: -1},
		{Store: 0, Compare: 0},
		{Store: math.NaN(), Compare: 1},
		{Store: math.Inf(1), Compare: 1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid costs accepted: %+v", i, c)
		}
	}
}

func TestCostsOf(t *testing.T) {
	c := Costs{Store: 2, Compare: 20, Rollback: 3}
	if got := c.Of(SCP); got != 2 {
		t.Fatalf("Of(SCP) = %v", got)
	}
	if got := c.Of(CCP); got != 20 {
		t.Fatalf("Of(CCP) = %v", got)
	}
	if got := c.Of(CSCP); got != 22 {
		t.Fatalf("Of(CSCP) = %v", got)
	}
	if got := c.CSCPCycles(); got != 22 {
		t.Fatalf("CSCPCycles = %v", got)
	}
}

func TestPaperSettingsCycleCount(t *testing.T) {
	// Both experimental settings use c = 22 so the CSCP-only baselines
	// see identical overheads across §4.1 and §4.2.
	if SCPSetting().CSCPCycles() != 22 || CCPSetting().CSCPCycles() != 22 {
		t.Fatal("paper settings must both have c = 22")
	}
}

func TestAtSpeedHalvesTime(t *testing.T) {
	c := SCPSetting()
	if got, want := c.AtSpeed(CSCP, 2), 11.0; got != want {
		t.Fatalf("AtSpeed(CSCP, 2) = %v, want %v", got, want)
	}
	if got, want := c.AtSpeed(SCP, 1), 2.0; got != want {
		t.Fatalf("AtSpeed(SCP, 1) = %v, want %v", got, want)
	}
}

func TestAtSpeedPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SCPSetting().AtSpeed(SCP, 0)
}

func TestOfPanicsOnUnknownKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SCPSetting().Of(Kind(42))
}

func TestPropertyCSCPCostIsSum(t *testing.T) {
	f := func(a, b uint16) bool {
		c := Costs{Store: float64(a), Compare: float64(b) + 1}
		return c.Of(CSCP) == c.Of(SCP)+c.Of(CCP)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScaled(t *testing.T) {
	c := SCPSetting()
	half := c.Scaled(2)
	if half.Store != 1 || half.Compare != 10 || half.Rollback != 0 {
		t.Fatalf("Scaled(2) = %+v", half)
	}
	if got := c.Scaled(1); got != c {
		t.Fatalf("Scaled(1) = %+v, want identity", got)
	}
}

func TestScaledPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	SCPSetting().Scaled(0)
}

func TestSpeedGuardsRejectNegative(t *testing.T) {
	// A negative DVS speed is as meaningless as zero; both guards must
	// trip, not silently flip cost signs.
	for name, call := range map[string]func(){
		"AtSpeed": func() { SCPSetting().AtSpeed(CSCP, -1) },
		"Scaled":  func() { SCPSetting().Scaled(-0.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s(-v) did not panic", name)
				}
			}()
			call()
		}()
	}
}

func TestValidateRejectsNegativeInfinity(t *testing.T) {
	for i, c := range []Costs{
		{Store: math.Inf(-1), Compare: 1},
		{Store: 1, Compare: math.Inf(-1)},
		{Store: 1, Compare: 1, Rollback: math.Inf(-1)},
		{Store: 1, Compare: 1, Rollback: math.NaN()},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: -Inf/NaN cost accepted: %+v", i, c)
		}
	}
}
