// Package experiment assembles full simulations of the paper's
// evaluation scenarios: it deploys a topology per Table 2, wires
// modems, channel, protocol instances, traffic generators and mobility,
// runs the discrete-event engine, and reduces the raw counters to the
// metrics of §5.
package experiment

import (
	"errors"
	"fmt"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/channel"
	"ewmac/internal/energy"
	"ewmac/internal/fault"
	"ewmac/internal/mac"
	"ewmac/internal/mac/csmac"
	"ewmac/internal/mac/ewmac"
	"ewmac/internal/mac/ropa"
	"ewmac/internal/mac/saloha"
	"ewmac/internal/mac/sfama"
	"ewmac/internal/metrics"
	"ewmac/internal/obs"
	"ewmac/internal/obs/slotprof"
	"ewmac/internal/oracle"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/resilience"
	"ewmac/internal/routing"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
	"ewmac/internal/traffic"
	"ewmac/internal/vec"
)

// Protocol selects the MAC under test.
type Protocol string

// The four protocols of the paper's evaluation, plus the S-ALOHA
// extension baseline.
const (
	ProtocolEWMAC Protocol = "ewmac"
	ProtocolSFAMA Protocol = "sfama"
	ProtocolROPA  Protocol = "ropa"
	ProtocolCSMAC Protocol = "csmac"
	// ProtocolSALOHA is an extension baseline (slotted ALOHA with
	// acknowledgements); it is runnable but not part of the paper's
	// figure sweeps.
	ProtocolSALOHA Protocol = "saloha"
)

// Protocols lists all protocols in the paper's presentation order.
var Protocols = []Protocol{ProtocolSFAMA, ProtocolROPA, ProtocolCSMAC, ProtocolEWMAC}

// DisplayName returns the paper's name for the protocol.
func (p Protocol) DisplayName() string {
	switch p {
	case ProtocolEWMAC:
		return "EW-MAC"
	case ProtocolSFAMA:
		return "S-FAMA"
	case ProtocolROPA:
		return "ROPA"
	case ProtocolCSMAC:
		return "CS-MAC"
	case ProtocolSALOHA:
		return "S-ALOHA"
	default:
		return string(p)
	}
}

// Config is one scenario. Default() fills it with Table 2.
type Config struct {
	Protocol Protocol
	// Nodes is the number of sensing nodes; Sinks surface sinks.
	Nodes, Sinks int
	// RegionSide is the deployment cube edge in meters.
	RegionSide float64
	// MobileFraction of sensors drift (half horizontal, half vertical);
	// CurrentMS is the drift speed.
	MobileFraction, CurrentMS float64
	// OfferedLoadKbps is the network-wide generated payload rate.
	OfferedLoadKbps float64
	// DataBits is the payload size (Table 2: 1024–4096, default 2048).
	DataBits int
	// SimTime is total simulated time; Warmup is the initialization
	// period (Hello phase) excluded from the measurement window.
	SimTime, Warmup time.Duration
	// Seed drives every random stream.
	Seed int64
	// QueueMax bounds MAC queues (0 = unbounded).
	QueueMax int
	// MaxRetries drops a packet after that many failed rounds (0 = keep
	// trying).
	MaxRetries int
	// Model overrides the acoustic environment (nil = default).
	Model *acoustic.Model
	// PER overrides the packet-error model (nil = threshold receiver
	// at the model's SINR cutoff). Use acoustic.UniformLossPER for
	// failure injection.
	PER acoustic.PERModel
	// EW passes EW-MAC's options.
	EW ewmac.Options
	// Faults enables deterministic fault injection (node churn, clock
	// drift, delay shifts, outages, interference); nil runs the
	// fault-free baseline bit-identically. When faults are active every
	// MAC is hardened (mac.Config.Hardened): delay probes, per-peer
	// liveness, the stuck-state watchdog and EW-MAC's stale-delay rule.
	Faults *fault.Scenario
	// Overload configures queue drop policies, admission control, and
	// retry budgets on every MAC. The zero value keeps the historical
	// tail-drop/unbudgeted behaviour bit-identically.
	Overload mac.OverloadConfig
	// ClosedLoop turns the traffic generators closed-loop: arrivals are
	// withheld at the source while the destination MAC reports
	// backpressure (requires Overload.HighWater). The Poisson schedule
	// is untouched, so RNG streams are identical either way. Off by
	// default.
	ClosedLoop bool
	// Budget bounds the run: wall-clock deadline, executed-event cap,
	// and the livelock watchdog window (sim time frozen across that
	// many events aborts the run). The zero Budget runs unbounded and
	// bit-identically to earlier versions. When any bound is set and
	// LivelockEvents is not, sim.DefaultLivelockEvents applies. An
	// exhausted budget surfaces as an error wrapping
	// sim.ErrBudgetExceeded.
	Budget sim.Budget
	// Observe configures the unified observability layer (structured
	// event tracing, time-series sampling, run reports); nil disables.
	Observe *Observe
}

// mobilityStep is how often drifting nodes' positions advance.
const mobilityStep = time.Second

// Default returns the paper's Table 2 scenario for protocol p.
func Default(p Protocol) Config {
	return Config{
		Protocol:        p,
		Nodes:           60,
		Sinks:           4,
		RegionSide:      1000,
		MobileFraction:  0.5,
		CurrentMS:       0.3,
		OfferedLoadKbps: 0.5,
		DataBits:        2048,
		SimTime:         300 * time.Second,
		Warmup:          12 * time.Second,
		Seed:            1,
		QueueMax:        128,
	}
}

// Validate reports every invalid field as one joined error, so a
// mis-built config is fixable in a single pass instead of one
// rejection at a time.
func (c Config) Validate() error {
	var errs []error
	bad := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("experiment: "+format, args...))
	}
	if c.Nodes <= 0 {
		bad("%d nodes", c.Nodes)
	}
	if c.Sinks < 0 {
		bad("%d sinks", c.Sinks)
	}
	if c.DataBits <= 0 {
		bad("%d data bits", c.DataBits)
	}
	if c.Warmup < 0 {
		bad("warmup %v", c.Warmup)
	}
	if c.SimTime <= c.Warmup {
		bad("sim time %v within warmup %v", c.SimTime, c.Warmup)
	}
	if c.RegionSide <= 0 {
		bad("region side %v", c.RegionSide)
	}
	if c.MobileFraction < 0 || c.MobileFraction > 1 {
		bad("mobile fraction %v outside [0, 1]", c.MobileFraction)
	}
	if c.OfferedLoadKbps < 0 {
		bad("offered load %v", c.OfferedLoadKbps)
	}
	if c.QueueMax < 0 {
		bad("queue max %d", c.QueueMax)
	}
	if c.MaxRetries < 0 {
		bad("max retries %d", c.MaxRetries)
	}
	if c.Budget.Deadline < 0 {
		bad("budget deadline %v", c.Budget.Deadline)
	}
	switch c.Protocol {
	case ProtocolEWMAC, ProtocolSFAMA, ProtocolROPA, ProtocolCSMAC, ProtocolSALOHA:
	default:
		bad("unknown protocol %q", c.Protocol)
	}
	if c.Overload.PriorityEvery < 0 {
		bad("priority every %d", c.Overload.PriorityEvery)
	}
	if c.ClosedLoop && c.Overload.HighWater <= 0 {
		bad("closed loop needs Overload.HighWater to produce a backpressure signal")
	}
	if err := c.Overload.Validate(c.QueueMax); err != nil {
		errs = append(errs, err)
	}
	if c.Faults != nil {
		if err := c.Faults.Validate(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// Result is one run's outcome.
type Result struct {
	Config  Config
	Summary metrics.Summary
	// MeanDegree and MaxPairDelay characterize the deployed topology.
	MeanDegree   float64
	MaxPairDelay time.Duration
	// PerNode keeps raw samples for deeper inspection.
	PerNode []metrics.NodeSample
	// Report is the observability summary, set when Config.Observe
	// enables report collection.
	Report *obs.RunReport
	// SlotProfile is the waiting-resource profile summary, set when
	// Config.Observe enables slot profiling.
	SlotProfile *slotprof.Summary
	// Resilience is the recovery-metrics summary (fault episodes,
	// time-to-recover, degraded-window delivery, stranded packets),
	// set on fault-injected runs.
	Resilience *obs.ResilienceStats
	// Conformance is the streaming oracle's summary (receptions
	// checked, violations by reason, index high-water marks), set when
	// Config.Observe enables verification.
	Conformance *oracle.Stats
}

// Run executes one scenario.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	model := cfg.Model
	if model == nil {
		model = acoustic.DefaultModel()
	}
	prof := energy.DefaultProfile()

	eng := sim.NewEngine(cfg.Seed)
	if cfg.Budget.Enabled() {
		b := cfg.Budget
		if b.LivelockEvents == 0 {
			b.LivelockEvents = sim.DefaultLivelockEvents
		}
		eng.SetBudget(b)
	}
	net, err := topology.Deploy(topology.DeployConfig{
		Nodes:     cfg.Nodes,
		Sinks:     cfg.Sinks,
		Region:    vec.Cube(cfg.RegionSide),
		Mobile:    cfg.MobileFraction,
		CurrentMS: cfg.CurrentMS,
	}, model, eng.RNG("deploy"))
	if err != nil {
		return nil, err
	}
	ch, err := channel.New(eng, net)
	if err != nil {
		return nil, err
	}
	slots := mac.SlotConfig{
		Omega:  packet.Duration(packet.ControlBits, model.BitRate()),
		TauMax: model.MaxDelay(),
	}

	// The resilience tracker joins the recorder fan-out on fault-
	// injected and overload-managed runs so it sees the same event
	// stream as every other consumer (this also means such runs always
	// carry a recorder).
	var tracker *resilience.Tracker
	var trackerRec obs.Recorder
	if cfg.Faults.Active() || cfg.Overload.Armed() {
		tracker = resilience.NewTracker()
		trackerRec = tracker
	}
	ro := newRunObs(cfg, slots, model, trackerRec)
	defer ro.stop()
	if ro.rec != nil {
		ch.SetRecorder(ro.rec)
	}

	var inj *fault.Injector
	if cfg.Faults.Active() {
		inj = fault.NewInjector(eng, cfg.Faults, net, ro.rec)
	}

	modems := make([]*phy.Modem, 0, net.Len())
	protos := make([]mac.Protocol, 0, net.Len())
	slotLane := eng.NewLane(sim.PriorityMAC)
	for _, n := range net.Nodes() {
		modem, err := phy.NewModem(phy.Config{
			ID:     n.ID,
			Engine: eng,
			Model:  model,
			PER:    cfg.PER,
			Medium: ch,
			Energy: prof,
		})
		if err != nil {
			return nil, err
		}
		if err := ch.Register(modem); err != nil {
			return nil, err
		}
		if ro.rec != nil {
			modem.SetRecorder(ro.rec)
		}
		mcfg := mac.Config{
			ID:          n.ID,
			Engine:      eng,
			Modem:       modem,
			Slots:       slots,
			MaxID:       packet.NodeID(net.Len()),
			BitRate:     model.BitRate(),
			IsSink:      n.Sink,
			QueueMax:    cfg.QueueMax,
			MaxRetries:  cfg.MaxRetries,
			EnableHello: true,
			HelloWindow: cfg.Warmup,
			Recorder:    ro.rec,
			SlotLane:    slotLane,
			Overload:    cfg.Overload,
			// Fault-free runs leave hardening off, so every code path
			// stays bit-identical to the paper's protocol.
			Hardened: inj != nil,
		}
		if inj != nil {
			if c := inj.ClockFor(n.ID); c != nil {
				mcfg.Clock = c
			}
		}
		proto, err := buildProtocol(cfg, mcfg)
		if err != nil {
			return nil, err
		}
		modem.SetListener(proto)
		if inj != nil {
			inj.Register(n.ID, modem, proto)
		}
		modems = append(modems, modem)
		protos = append(protos, proto)
	}
	for _, p := range protos {
		p.Start()
	}
	if inj != nil {
		// Faults begin after warmup so the Hello phase establishes the
		// baseline delay tables the injectors then degrade.
		inj.Start(sim.At(cfg.Warmup), sim.At(cfg.SimTime))
	}

	// Traffic.
	route := func(from packet.NodeID) (packet.NodeID, bool) {
		return routing.NextHop(net, from)
	}
	warmupAt := sim.At(cfg.Warmup)
	endAt := sim.At(cfg.SimTime)
	if cfg.OfferedLoadKbps > 0 {
		rate := traffic.PerNodeRate(cfg.OfferedLoadKbps, cfg.DataBits, cfg.Nodes)
		for i, n := range net.Nodes() {
			if n.Sink {
				continue
			}
			tc := traffic.Config{
				Node:      n.ID,
				Engine:    eng,
				Sink:      protos[i],
				Route:     route,
				RatePPS:   rate,
				Bits:      cfg.DataBits,
				Start:     warmupAt,
				Stop:      endAt,
				HighEvery: cfg.Overload.PriorityEvery,
			}
			if cfg.ClosedLoop {
				tc.Backpressure = protos[i].Backpressure
			}
			gen, err := traffic.NewGenerator(tc)
			if err != nil {
				return nil, err
			}
			gen.Start()
		}
	}

	// Mobility.
	if cfg.MobileFraction > 0 && cfg.CurrentMS > 0 {
		var step func()
		step = func() {
			net.Step(mobilityStep)
			if eng.Now().Add(mobilityStep).Before(endAt) {
				eng.ScheduleIn(mobilityStep, sim.PriorityObserver, step)
			}
		}
		eng.ScheduleIn(mobilityStep, sim.PriorityObserver, step)
	}

	if err := ro.startSampler(cfg, eng, slots, protos, modems, endAt); err != nil {
		return nil, err
	}

	// Baseline energy snapshot at warmup so initialization cost does
	// not skew the power comparison window.
	baseline := make([]energy.Breakdown, len(modems))
	eng.ScheduleAt(warmupAt, sim.PriorityObserver, func() {
		for i, m := range modems {
			b, err := m.Energy()
			if err == nil {
				baseline[i] = b
			}
		}
	})

	eng.RunUntil(endAt)
	if berr := eng.BudgetErr(); berr != nil {
		// The run was cut mid-stream; partial counters would be
		// misleading, so the abort is the whole result — but the stream
		// consumers still flush through the same close path as normal
		// completion, so trace/span/profile files are parseable up to
		// the cut instead of ending mid-buffer.
		cerr := ro.closeStreams(eng)
		return nil, errors.Join(
			fmt.Errorf("experiment: %s seed %d: %w", cfg.Protocol, cfg.Seed, berr), cerr)
	}

	samples := make([]metrics.NodeSample, 0, len(modems))
	for i, m := range modems {
		b, err := m.Energy()
		if err != nil {
			return nil, err
		}
		samples = append(samples, metrics.NodeSample{
			MAC:    protos[i].Counters(),
			PHY:    m.Stats(),
			Energy: b.Sub(baseline[i]),
			IsSink: net.Nodes()[i].Sink,
		})
	}
	sum, err := metrics.Summarize(samples, cfg.SimTime-cfg.Warmup, cfg.DataBits)
	if err != nil {
		return nil, err
	}
	rep, err := ro.finish(cfg, eng)
	if err != nil {
		return nil, err
	}
	var conf *oracle.Stats
	if ro.verifier != nil {
		st := ro.verifier.Stats()
		conf = &st
	}
	var resil *obs.ResilienceStats
	if tracker != nil {
		stranded := 0
		for _, p := range protos {
			stranded += p.Stranded()
		}
		resil = tracker.Summary(eng.Now(), stranded)
		c := sum.MAC
		resil.SuspectMarks, resil.DeadMarks = c.SuspectMarks, c.DeadMarks
		resil.Resurrections, resil.WatchdogResets = c.Resurrections, c.WatchdogResets
		resil.RetryDeferrals, resil.ShedPackets = c.RetryDeferrals, c.DroppedShed
		if conf != nil {
			resil.OracleViolations = conf.Violations
		}
		if rep != nil {
			rep.Resilience = resil
		}
	}
	meanDegree, maxPairDelay := net.PairStats()
	return &Result{
		Config:       cfg,
		Summary:      sum,
		MeanDegree:   meanDegree,
		MaxPairDelay: maxPairDelay,
		PerNode:      samples,
		Report:       rep,
		SlotProfile:  ro.slotSum,
		Resilience:   resil,
		Conformance:  conf,
	}, nil
}

func buildProtocol(cfg Config, mcfg mac.Config) (mac.Protocol, error) {
	switch cfg.Protocol {
	case ProtocolEWMAC:
		return ewmac.New(mcfg, cfg.EW)
	case ProtocolSFAMA:
		return sfama.New(mcfg)
	case ProtocolROPA:
		return ropa.New(mcfg)
	case ProtocolCSMAC:
		return csmac.New(mcfg)
	case ProtocolSALOHA:
		return saloha.New(mcfg)
	default:
		return nil, errors.New("experiment: unknown protocol")
	}
}

// RunMean executes the scenario once per seed, one run after another
// in seed order, and averages the summaries. Sweeps fan out above it,
// one point per runner worker (internal/runner), so a point's seeds
// need no goroutines of their own; a panic in a run propagates to the
// caller exactly as from Run.
func RunMean(cfg Config, seeds []int64) (metrics.Summary, error) {
	if len(seeds) == 0 {
		seeds = []int64{cfg.Seed}
	}
	runs := make([]metrics.Summary, len(seeds))
	for i, seed := range seeds {
		c := cfg
		c.Seed = seed
		r, err := Run(c)
		if err != nil {
			return metrics.Summary{}, err
		}
		runs[i] = r.Summary
	}
	return metrics.Mean(runs)
}
