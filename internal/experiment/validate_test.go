package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"ewmac/internal/sim"
)

// TestValidateEveryField drives one invalid value through each check
// and asserts its rejection message, so a regressed or silently
// dropped check fails by name.
func TestValidateEveryField(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"nodes", func(c *Config) { c.Nodes = 0 }, "0 nodes"},
		{"sinks", func(c *Config) { c.Sinks = -1 }, "-1 sinks"},
		{"data bits", func(c *Config) { c.DataBits = -8 }, "-8 data bits"},
		{"sim time", func(c *Config) { c.SimTime = c.Warmup }, "within warmup"},
		{"warmup", func(c *Config) { c.Warmup = -time.Second; c.SimTime = 5 * time.Second }, "warmup -1s"},
		{"region side", func(c *Config) { c.RegionSide = 0 }, "region side 0"},
		{"mobile fraction", func(c *Config) { c.MobileFraction = 1.5 }, "mobile fraction 1.5 outside [0, 1]"},
		{"offered load", func(c *Config) { c.OfferedLoadKbps = -0.1 }, "offered load -0.1"},
		{"queue max", func(c *Config) { c.QueueMax = -1 }, "queue max -1"},
		{"max retries", func(c *Config) { c.MaxRetries = -2 }, "max retries -2"},
		{"budget deadline", func(c *Config) { c.Budget.Deadline = -time.Second }, "budget deadline -1s"},
		{"protocol", func(c *Config) { c.Protocol = "bogus" }, `unknown protocol "bogus"`},
		{"closed loop", func(c *Config) { c.ClosedLoop = true }, "closed loop needs Overload.HighWater"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default(ProtocolEWMAC)
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("Validate accepted invalid %s", tc.name)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestValidateJoinsAllErrors: a config broken in several ways reports
// every broken field at once, not just the first.
func TestValidateJoinsAllErrors(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.Nodes = -5
	cfg.DataBits = 0
	cfg.RegionSide = -1
	cfg.Protocol = "nope"
	err := cfg.Validate()
	if err == nil {
		t.Fatal("Validate accepted a quadruply-broken config")
	}
	for _, want := range []string{"-5 nodes", "0 data bits", "region side -1", `unknown protocol "nope"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error %q missing %q", err, want)
		}
	}
}

func TestValidateAcceptsDefaults(t *testing.T) {
	for _, p := range append(Protocols, ProtocolSALOHA) {
		if err := Default(p).Validate(); err != nil {
			t.Errorf("default %s config rejected: %v", p, err)
		}
	}
}

// TestRunBudgetAborts: a run under an impossible wall-clock deadline
// must abort with a structured budget error instead of completing or
// hanging.
func TestRunBudgetAborts(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.Nodes = 8
	cfg.Sinks = 1
	cfg.SimTime = 30 * time.Second
	cfg.Budget = sim.Budget{Deadline: time.Nanosecond}
	_, err := Run(cfg)
	if !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("Run under 1ns deadline returned %v, want ErrBudgetExceeded", err)
	}
	var be *sim.BudgetError
	if !errors.As(err, &be) || be.Reason != sim.BudgetDeadline {
		t.Fatalf("error %v lacks a deadline BudgetError", err)
	}
}

// TestRunBudgetMaxEvents: the event cap also aborts, and a generous
// budget does not disturb a completing run.
func TestRunBudgetMaxEvents(t *testing.T) {
	cfg := Default(ProtocolEWMAC)
	cfg.Nodes = 8
	cfg.Sinks = 1
	cfg.SimTime = 30 * time.Second
	cfg.Budget = sim.Budget{MaxEvents: 50}
	if _, err := Run(cfg); !errors.Is(err, sim.ErrBudgetExceeded) {
		t.Fatalf("Run under 50-event cap returned %v", err)
	}

	cfg.Budget = sim.Budget{MaxEvents: 50_000_000, Deadline: 10 * time.Minute}
	if _, err := Run(cfg); err != nil {
		t.Fatalf("Run under generous budget failed: %v", err)
	}
}
