package fault

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestParseScenario(t *testing.T) {
	src := `{
		"name": "t",
		"churn": {"mean_up": "60s", "mean_down": "15s", "fraction": 0.25},
		"drift": {"skew_ppm": 100, "max_offset": "50ms", "sync_every": "30s",
		          "loss_mean_every": "1m", "loss_mean_dur": "45s", "fraction": 0.5},
		"delay_shift": {"mean_every": "40s", "max_jump_m": 120, "fraction": 0.3},
		"outage": {"mean_every": "90s", "mean_dur": "5s", "fraction": 0.2},
		"interference": {"mean_every": "30s", "mean_dur": "2s", "level_db": 60, "radius_m": 300}
	}`
	s, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Active() {
		t.Error("fully populated scenario reports inactive")
	}
	if got := s.Churn.MeanUp.D(); got != 60*time.Second {
		t.Errorf("mean_up = %v", got)
	}
	if got := s.Drift.LossMeanEvery.D(); got != time.Minute {
		t.Errorf("loss_mean_every = %v", got)
	}
	if got := s.Drift.MaxOffset.D(); got != 50*time.Millisecond {
		t.Errorf("max_offset = %v", got)
	}
	if s.Interference.LevelDB != 60 || s.Interference.RadiusM != 300 {
		t.Errorf("interference = %+v", s.Interference)
	}
}

func TestDurRoundTrip(t *testing.T) {
	b, err := json.Marshal(Dur(90 * time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if string(b) != `"1m30s"` {
		t.Errorf("marshal = %s", b)
	}
	var d Dur
	if err := json.Unmarshal(b, &d); err != nil {
		t.Fatal(err)
	}
	if d.D() != 90*time.Second {
		t.Errorf("round trip = %v", d.D())
	}
	// Integer nanoseconds are accepted too.
	if err := json.Unmarshal([]byte("1500000000"), &d); err != nil {
		t.Fatal(err)
	}
	if d.D() != 1500*time.Millisecond {
		t.Errorf("ns form = %v", d.D())
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &d); err == nil {
		t.Error("bad duration string accepted")
	}
}

func TestScenarioValidate(t *testing.T) {
	cases := []struct {
		name string
		sc   Scenario
		want string
	}{
		{"churn zero mean", Scenario{Churn: &ChurnSpec{MeanDown: Dur(time.Second), Fraction: 0.5}}, "churn means"},
		{"churn fraction", Scenario{Churn: &ChurnSpec{MeanUp: Dur(time.Second), MeanDown: Dur(time.Second), Fraction: 1.5}}, "fraction"},
		{"drift clock stops", Scenario{Drift: &DriftSpec{SkewPPM: 1e6, SyncEvery: Dur(time.Second), Fraction: 0.5}}, "skew"},
		{"drift no sync", Scenario{Drift: &DriftSpec{SkewPPM: 10, Fraction: 0.5}}, "sync_every"},
		{"drift loss dur", Scenario{Drift: &DriftSpec{SkewPPM: 10, SyncEvery: Dur(time.Second), LossMeanEvery: Dur(time.Second), Fraction: 0.5}}, "loss_mean_dur"},
		{"shift jump", Scenario{DelayShift: &DelayShiftSpec{MeanEvery: Dur(time.Second), Fraction: 0.5}}, "max_jump_m"},
		{"outage means", Scenario{Outage: &OutageSpec{MeanEvery: Dur(time.Second), Fraction: 0.5}}, "outage means"},
		{"interference means", Scenario{Interference: &InterferenceSpec{MeanEvery: Dur(time.Second)}}, "interference means"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sc.Validate()
			if err == nil {
				t.Fatal("invalid scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	empty := &Scenario{}
	if err := empty.Validate(); err != nil {
		t.Errorf("empty scenario rejected: %v", err)
	}
	if empty.Active() {
		t.Error("empty scenario reports active")
	}
	var nilSc *Scenario
	if nilSc.Active() {
		t.Error("nil scenario reports active")
	}
}
