package experiment

import (
	"testing"
	"time"
)

// short returns a fast-but-meaningful scenario.
func short(p Protocol) Config {
	cfg := Default(p)
	cfg.SimTime = 120 * time.Second
	cfg.OfferedLoadKbps = 0.5
	return cfg
}

func TestRunAllProtocolsDeliver(t *testing.T) {
	for _, p := range Protocols {
		p := p
		t.Run(string(p), func(t *testing.T) {
			res, err := Run(short(p))
			if err != nil {
				t.Fatal(err)
			}
			s := res.Summary
			if s.MAC.Generated == 0 {
				t.Fatal("no traffic generated")
			}
			if s.MAC.DeliveredPackets == 0 {
				t.Fatal("nothing delivered")
			}
			if s.ThroughputKbps <= 0 || s.ThroughputKbps > s.OfferedKbps*1.05 {
				t.Errorf("throughput %v implausible vs offered %v", s.ThroughputKbps, s.OfferedKbps)
			}
			if s.DeliveryRatio <= 0 || s.DeliveryRatio > 1 {
				t.Errorf("delivery ratio %v outside (0, 1]", s.DeliveryRatio)
			}
			if s.MeanPowerMW <= 0 {
				t.Error("no energy consumed")
			}
			if s.ExecutionTime <= 0 {
				t.Error("no latency recorded")
			}
			if res.MeanDegree < 2 {
				t.Errorf("network implausibly sparse: degree %v", res.MeanDegree)
			}
		})
	}
}

func TestRunDeterministic(t *testing.T) {
	for _, p := range Protocols {
		a, err := Run(short(p))
		if err != nil {
			t.Fatal(err)
		}
		b, err := Run(short(p))
		if err != nil {
			t.Fatal(err)
		}
		if a.Summary.MAC != b.Summary.MAC {
			t.Errorf("%s: MAC counters differ across identical runs:\n%+v\n%+v",
				p, a.Summary.MAC, b.Summary.MAC)
		}
		if a.Summary.PHY != b.Summary.PHY {
			t.Errorf("%s: PHY stats differ across identical runs", p)
		}
	}
}

func TestRunSeedSensitivity(t *testing.T) {
	cfg := short(ProtocolEWMAC)
	a, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Summary.MAC == b.Summary.MAC {
		t.Error("different seeds produced identical counters (RNG not wired?)")
	}
}

func TestProtocolOrderingUnderLoad(t *testing.T) {
	// The paper's headline result (Figure 6, high load): EW-MAC beats
	// every baseline, and every exploit protocol beats S-FAMA.
	thr := map[Protocol]float64{}
	for _, p := range Protocols {
		cfg := short(p)
		cfg.OfferedLoadKbps = 0.8
		cfg.SimTime = 200 * time.Second
		sum, err := RunMean(cfg, []int64{1, 2})
		if err != nil {
			t.Fatal(err)
		}
		thr[p] = sum.ThroughputKbps
	}
	t.Logf("throughput at 0.8 kbps: %v", thr)
	if thr[ProtocolEWMAC] <= thr[ProtocolSFAMA] {
		t.Error("EW-MAC did not beat S-FAMA")
	}
	if thr[ProtocolEWMAC] <= thr[ProtocolROPA] {
		t.Error("EW-MAC did not beat ROPA")
	}
	if thr[ProtocolEWMAC] <= thr[ProtocolCSMAC] {
		t.Error("EW-MAC did not beat CS-MAC at high load")
	}
	if thr[ProtocolCSMAC] <= thr[ProtocolSFAMA] {
		t.Error("CS-MAC did not beat S-FAMA")
	}
	if thr[ProtocolROPA] <= thr[ProtocolSFAMA] {
		t.Error("ROPA did not beat S-FAMA")
	}
}

func TestOverheadOrdering(t *testing.T) {
	// Figure 10: S-FAMA is the overhead baseline; the exploit
	// protocols pay more, CS-MAC the most (two-hop state piggybacked
	// on every control frame).
	ovh := map[Protocol]uint64{}
	for _, p := range Protocols {
		cfg := short(p)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ovh[p] = res.Summary.OverheadBits
	}
	t.Logf("overhead bits: %v", ovh)
	if ovh[ProtocolSFAMA] >= ovh[ProtocolEWMAC] {
		t.Error("S-FAMA overhead should be the smallest")
	}
	if ovh[ProtocolCSMAC] <= ovh[ProtocolROPA] {
		t.Error("CS-MAC overhead should exceed ROPA's")
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"zero nodes", func(c *Config) { c.Nodes = 0 }},
		{"zero bits", func(c *Config) { c.DataBits = 0 }},
		{"sim within warmup", func(c *Config) { c.SimTime = c.Warmup }},
		{"zero region", func(c *Config) { c.RegionSide = 0 }},
		{"negative load", func(c *Config) { c.OfferedLoadKbps = -1 }},
		{"unknown protocol", func(c *Config) { c.Protocol = "alohaext" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default(ProtocolEWMAC)
			tc.edit(&cfg)
			if _, err := Run(cfg); err == nil {
				t.Error("Run accepted invalid config")
			}
		})
	}
}

func TestRunMeanAverages(t *testing.T) {
	cfg := short(ProtocolSFAMA)
	sum, err := RunMean(cfg, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if sum.ThroughputKbps <= 0 {
		t.Error("averaged throughput zero")
	}
	// Averaging must fall between the per-seed extremes.
	var lo, hi float64
	for i, s := range []int64{1, 2, 3} {
		c := cfg
		c.Seed = s
		r, err := Run(c)
		if err != nil {
			t.Fatal(err)
		}
		v := r.Summary.ThroughputKbps
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	if sum.ThroughputKbps < lo-1e-9 || sum.ThroughputKbps > hi+1e-9 {
		t.Errorf("mean %v outside [%v, %v]", sum.ThroughputKbps, lo, hi)
	}
}

func TestLargerDataPacketsCarryMoreBits(t *testing.T) {
	// Table 2 supports 1024–4096-bit payloads; with the same load the
	// throughput should not collapse for large packets (the paper's
	// conclusion favors them).
	small := short(ProtocolEWMAC)
	small.DataBits = 1024
	big := short(ProtocolEWMAC)
	big.DataBits = 4096
	rs, err := Run(small)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := Run(big)
	if err != nil {
		t.Fatal(err)
	}
	if rb.Summary.MAC.DeliveredBits == 0 || rs.Summary.MAC.DeliveredBits == 0 {
		t.Fatal("no delivery")
	}
	perPacketSmall := float64(rs.Summary.MAC.DeliveredBits) / float64(rs.Summary.MAC.DeliveredPackets)
	perPacketBig := float64(rb.Summary.MAC.DeliveredBits) / float64(rb.Summary.MAC.DeliveredPackets)
	if perPacketSmall != 1024 || perPacketBig != 4096 {
		t.Errorf("per-packet bits %v/%v, want 1024/4096", perPacketSmall, perPacketBig)
	}
}

func TestSinksNeverGenerate(t *testing.T) {
	cfg := short(ProtocolSFAMA)
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range res.PerNode {
		if s.IsSink && s.MAC.Generated > 0 {
			t.Errorf("sink %d generated traffic", i)
		}
	}
}
