package experiment

import (
	"reflect"
	"testing"
	"time"
)

// TestStreamingVerifyCleanRuns arms the always-on conformance verifier
// on every protocol under heavy contention and requires a clean
// verdict: the simulator's own receptions must satisfy Equation (1)
// as they stream past, with the verdict surfaced through
// Result.Conformance and the RunReport.
func TestStreamingVerifyCleanRuns(t *testing.T) {
	for _, p := range append(append([]Protocol(nil), Protocols...), ProtocolSALOHA) {
		p := p
		t.Run(string(p), func(t *testing.T) {
			cfg := Default(p)
			cfg.SimTime = 90 * time.Second
			cfg.OfferedLoadKbps = 0.8
			cfg.Observe = &Observe{Verify: true, Report: true}
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			st := res.Conformance
			if st == nil {
				t.Fatal("Verify on but Result.Conformance is nil")
			}
			if st.Receptions == 0 {
				t.Fatal("verifier saw no receptions")
			}
			if st.Violations != 0 {
				t.Errorf("streaming oracle flagged a conformant run: %+v", st)
			}
			if st.PeakArrivals == 0 || st.PeakTxSpans == 0 {
				t.Errorf("verifier indexes never populated: %+v", st)
			}
			if res.Report == nil {
				t.Fatal("Report on but Result.Report is nil")
			}
			if len(res.Report.OracleViolations) != 0 {
				t.Errorf("report carries violations on a clean run: %v", res.Report.OracleViolations)
			}
		})
	}
}

// TestVerifyDoesNotPerturbRun: the verifier is purely observational —
// arming it must leave the simulation's outcome bit-identical to a
// bare run of the same seed.
func TestVerifyDoesNotPerturbRun(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.SimTime = 60 * time.Second
	bare, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Observe = &Observe{Verify: true}
	verified, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bare.Summary, verified.Summary) {
		t.Errorf("verification perturbed the run:\n bare:     %+v\n verified: %+v",
			bare.Summary, verified.Summary)
	}
	if verified.Conformance == nil || verified.Conformance.Violations != 0 {
		t.Errorf("unexpected verdict: %+v", verified.Conformance)
	}
}
