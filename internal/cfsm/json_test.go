package cfsm

import (
	"errors"
	"reflect"
	"testing"
)

func TestSuiteCodecRoundTrip(t *testing.T) {
	suite := []TestCase{
		{Name: "T1", Inputs: []Input{Reset(), {Sym: "a", Port: 0}, {Sym: "c'", Port: 2}}},
		{Name: "T2", Inputs: []Input{{Sym: "x", Port: 1}}},
	}
	wire := EncodeSuite(suite)
	if got := wire[0].Inputs; !reflect.DeepEqual(got, []string{"R", "a^1", "c'^3"}) {
		t.Fatalf("encoded inputs = %q", got)
	}
	back, err := DecodeSuite(wire)
	if err != nil {
		t.Fatalf("DecodeSuite: %v", err)
	}
	if !reflect.DeepEqual(back, suite) {
		t.Fatalf("round trip = %+v, want %+v", back, suite)
	}
}

func TestDecodeSuiteNamesAndDuplicates(t *testing.T) {
	got, err := DecodeSuite([]TestCaseJSON{{Inputs: []string{"R"}}, {Name: "T2", Inputs: []string{"R"}}})
	if err != nil || got[0].Name != "tc1" || got[1].Name != "T2" {
		t.Fatalf("DecodeSuite = %+v, %v; want tc1, T2", got, err)
	}
	// An explicit name claiming an unnamed case's slot collides too.
	_, err = DecodeSuite([]TestCaseJSON{{Inputs: []string{"R"}}, {Name: "tc1", Inputs: []string{"R"}}})
	var dup *DuplicateTestCaseError
	if !errors.As(err, &dup) || dup.Name != "tc1" {
		t.Fatalf("err = %v, want a DuplicateTestCaseError naming tc1", err)
	}
	if _, err := DecodeSuite([]TestCaseJSON{{Name: "T1", Inputs: []string{"a^"}}}); err == nil {
		t.Fatal("malformed input token accepted")
	}
}
