// Package phy implements the half-duplex acoustic modem: transmit
// scheduling, arrival tracking, SINR-based collision resolution, and
// per-state energy metering. It is deliberately protocol-agnostic — the
// MAC layer sees successfully decoded frames (including everything it
// overhears) plus a transmit-complete callback, which is exactly the
// interface NS-3's UAN PHY presents to its MAC models.
//
// The per-arrival path is allocation-free in steady state and reads
// the ambient noise from a per-modem cache (see Config.Model). Arrival
// records come from a per-modem free list; ownership rule, as for
// obs's pooled records: an arrival is recycled as its end-of-arrival
// handler runs, before any listener, tap or recorder is called, and
// those see only the frame, never the record. The frame is the one the
// sender transmitted, shared and immutable (see packet.Frame).
package phy

import (
	"errors"
	"fmt"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/energy"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// ErrBusy is returned by Transmit while a transmission is in progress:
// the transducer is half-duplex and single-channel.
var ErrBusy = errors.New("phy: modem already transmitting")

// ErrDown is returned by Transmit while the modem is down (crashed
// node or transient outage injected by the fault layer).
var ErrDown = errors.New("phy: modem down")

// LossReason classifies why a decodable frame was not delivered. Real
// modems cannot always tell these apart; the reasons feed metrics, not
// protocol logic.
type LossReason uint8

// Loss reasons.
const (
	// LossCollision means concurrent arrivals drove SINR below the
	// receiver threshold.
	LossCollision LossReason = iota + 1
	// LossTxDuringRx means the modem was transmitting during part of
	// the arrival (half-duplex self-blocking).
	LossTxDuringRx
	// LossChannel means the frame failed the PER draw without
	// interference (marginal link).
	LossChannel
)

// String implements fmt.Stringer.
func (r LossReason) String() string {
	switch r {
	case LossCollision:
		return "collision"
	case LossTxDuringRx:
		return "tx-during-rx"
	case LossChannel:
		return "channel"
	default:
		return fmt.Sprintf("LossReason(%d)", uint8(r))
	}
}

// Listener receives modem events. The MAC layer implements this.
type Listener interface {
	// OnFrameReceived delivers every successfully decoded frame,
	// whether or not this node is the destination (overhearing).
	OnFrameReceived(f *packet.Frame)
	// OnFrameLost reports a frame that would have been decodable but
	// was lost; for metrics only.
	OnFrameLost(f *packet.Frame, reason LossReason)
	// OnTxDone fires when the modem finishes clocking out a frame.
	OnTxDone(f *packet.Frame)
}

// Medium propagates a transmission to other modems. The channel package
// implements it against the deployed topology.
type Medium interface {
	// Broadcast delivers f (with on-air duration dur) to every other
	// modem, applying propagation delay and attenuation. Receivers may
	// share f, which no one mutates once transmitted. A non-nil error
	// means the medium dropped the transmission entirely (e.g. the
	// source is not part of the deployed topology); the transmitter
	// still spent its on-air time and energy.
	Broadcast(src packet.NodeID, f *packet.Frame, dur time.Duration) error
}

// Stats counts modem activity for the metrics layer.
type Stats struct {
	FramesTx   uint64
	BitsTx     uint64
	FramesRx   uint64
	BitsRx     uint64
	Collisions uint64
	TxSelfLoss uint64
	PERLosses  uint64
	// ControlBitsTx / DataBitsTx / PiggybackBitsTx split BitsTx for
	// overhead accounting (Figure 10).
	ControlBitsTx   uint64
	DataBitsTx      uint64
	PiggybackBitsTx uint64
	// ExtraFramesTx counts opportunistic frames (EX*/RTA/stolen).
	ExtraFramesTx uint64
}

// arrival is one signal currently in the air at a modem. Arrivals are
// recycled through the modem's free list: endArrival returns the
// record to the pool before it calls out, so nothing may retain an
// *arrival past that point.
type arrival struct {
	frame   *packet.Frame
	levelDB float64
	// levelLin is DBToLin(levelDB), computed only once the arrival
	// overlaps another (0 until then): a lone arrival needs no
	// interference sum.
	levelLin  float64
	corruptTx bool
	decodable bool
	// maxOtherLin is the worst concurrent interference power observed
	// while this arrival was in the air.
	maxOtherLin float64
	// fire runs endArrival for this record. It is bound once when the
	// record is first allocated and survives recycling, so scheduling
	// the end of an arrival allocates nothing.
	fire func()
}

// Modem is one node's acoustic transducer.
type Modem struct {
	id       packet.NodeID
	eng      *sim.Engine
	model    *acoustic.Model
	per      acoustic.PERModel
	listener Listener
	// rec is the structured event sink (nil when observability is off).
	rec obs.Recorder

	// noiseLin / noiseDB cache the model's ambient noise, which is
	// constant for the run: noiseDB is LinToDB(noiseLin), exactly the
	// denominator SINRDBFromLin computes for zero interference.
	noiseLin float64
	noiseDB  float64

	// The fields above and the arrival state below are what every
	// arrival reads, so they come first. The first arrivalsInline slots
	// of arrivals and free, and the first records, live in the modem
	// itself: a receiver rarely has more signals in the air at once, so
	// its per-arrival state stays in a few cache lines of its own. Past
	// them the slices grow onto the heap as usual.
	transmitting bool
	down         bool
	arrivals     []*arrival
	free         []*arrival
	slab         []arrival // fresh records not yet handed out
	arrivalSlots [arrivalsInline]*arrival
	freeSlots    [arrivalsInline]*arrival
	meter        energy.Meter
	stats        Stats
	rng          *sim.RNG

	medium     Medium
	txFrame    *packet.Frame
	finishTxFn func()
	firstRecs  [arrivalsInline]arrival
}

// arrivalsInline is how many concurrent arrivals a modem holds without
// touching memory outside itself.
const arrivalsInline = 4

// Config assembles a modem.
type Config struct {
	ID     packet.NodeID
	Engine *sim.Engine
	// Model is read-only once modems are built: NewModem caches the
	// ambient noise level it implies, so later edits to the model's
	// noise parameters would not reach the SINR computation.
	Model    *acoustic.Model
	PER      acoustic.PERModel
	Medium   Medium
	Listener Listener
	Energy   energy.Profile
}

// NewModem validates cfg and returns a modem in the idle-listening
// state.
func NewModem(cfg Config) (*Modem, error) {
	switch {
	case cfg.ID == packet.Nobody || cfg.ID == packet.Broadcast:
		return nil, fmt.Errorf("phy: invalid modem ID %v", cfg.ID)
	case cfg.Engine == nil:
		return nil, errors.New("phy: nil engine")
	case cfg.Model == nil:
		return nil, errors.New("phy: nil acoustic model")
	case cfg.Medium == nil:
		return nil, errors.New("phy: nil medium")
	}
	if err := cfg.Energy.Validate(); err != nil {
		return nil, err
	}
	per := cfg.PER
	if per == nil {
		per = acoustic.ThresholdPER{ThresholdDB: cfg.Model.SINRThresholdDB}
	}
	noiseLin := acoustic.DBToLin(cfg.Model.NoiseLevelDB())
	m := &Modem{
		id:       cfg.ID,
		eng:      cfg.Engine,
		model:    cfg.Model,
		per:      per,
		medium:   cfg.Medium,
		listener: cfg.Listener,
		meter:    energy.NewMeter(cfg.Energy, cfg.Engine.Now()),
		rng:      cfg.Engine.Stream("phy", int(cfg.ID)),
		noiseLin: noiseLin,
		noiseDB:  acoustic.LinToDB(noiseLin),
	}
	m.finishTxFn = m.finishTx
	m.arrivals, m.free, m.slab = m.arrivalSlots[:0], m.freeSlots[:0], m.firstRecs[:]
	return m, nil
}

// ID reports the modem's node ID.
func (m *Modem) ID() packet.NodeID { return m.id }

// SetListener installs the MAC callback sink. It must be called before
// the simulation starts; a nil listener drops events.
func (m *Modem) SetListener(l Listener) { m.listener = l }

// SetRecorder installs the observability event sink (nil to disable).
// The modem records obs.TxBegin, obs.FrameRx, and obs.FrameLoss.
func (m *Modem) SetRecorder(r obs.Recorder) { m.rec = r }

// Stats returns a copy of the activity counters.
func (m *Modem) Stats() Stats { return m.stats }

// Energy returns the cumulative energy breakdown as of now.
func (m *Modem) Energy() (energy.Breakdown, error) {
	return m.meter.Snapshot(m.eng.Now())
}

// Transmitting reports whether a transmission is in progress.
func (m *Modem) Transmitting() bool { return m.transmitting }

// Down reports whether the modem is down (fault-injected crash or
// outage).
func (m *Modem) Down() bool { return m.down }

// SetDown switches the modem between down and operational. While down
// the modem cannot start a transmission (Transmit returns ErrDown),
// never decodes arriving signals — including ones already in the air,
// which a dying receiver loses silently — and meters the sleep power
// draw. Bringing the modem back up restores idle listening; signals
// already arriving stay undecodable because the modem missed their
// synchronization preamble.
func (m *Modem) SetDown(down bool) {
	if m.down == down {
		return
	}
	m.down = down
	if down {
		for _, a := range m.arrivals {
			a.decodable = false
		}
		// An in-flight transmission is allowed to finish clocking out:
		// its energy is already committed to the channel, and cutting
		// the OnTxDone callback would wedge the MAC state machine the
		// fault layer is trying to exercise, not break.
	}
	m.updateEnergyState()
}

// Receiving reports whether any decodable signal is currently arriving.
func (m *Modem) Receiving() bool {
	for _, a := range m.arrivals {
		if a.decodable {
			return true
		}
	}
	return false
}

// Transmit clocks out f. The frame's on-air time follows from its size
// and the model's bit rate. Returns ErrBusy if a transmission is in
// progress. Transmitting corrupts every arrival currently in the air at
// this modem (half-duplex). From here on f must not change: the medium
// hands f itself to every receiver (see packet.Frame).
func (m *Modem) Transmit(f *packet.Frame) error {
	if m.down {
		return fmt.Errorf("%w: %v", ErrDown, f)
	}
	if m.transmitting {
		return fmt.Errorf("%w: %v while sending %v", ErrBusy, f, m.txFrame)
	}
	if err := f.Validate(); err != nil {
		return fmt.Errorf("phy: transmit: %w", err)
	}
	dur := f.TxDuration(m.model.BitRate())
	m.transmitting = true
	m.txFrame = f
	for _, a := range m.arrivals {
		a.corruptTx = true
	}
	m.accountTx(f)
	m.updateEnergyState()
	obs.TxBegin{Node: m.id, Frame: f, Dur: dur}.Emit(m.rec, m.eng.Now())
	// finishTx is scheduled even when the medium rejects the frame: the
	// transmitter already committed its on-air time and energy, and the
	// modem must return to idle rather than stay wedged in tx state.
	err := m.medium.Broadcast(m.id, f, dur)
	m.eng.ScheduleIn(dur, sim.PriorityPHY, m.finishTxFn)
	if err != nil {
		return fmt.Errorf("phy: transmit: %w", err)
	}
	return nil
}

// finishTx ends the transmission of m.txFrame; the modem is
// half-duplex, so at most one is ever pending.
func (m *Modem) finishTx() {
	f := m.txFrame
	m.transmitting = false
	m.txFrame = nil
	m.updateEnergyState()
	if m.listener != nil {
		m.listener.OnTxDone(f)
	}
}

func (m *Modem) accountTx(f *packet.Frame) {
	bits := uint64(f.Bits())
	m.stats.FramesTx++
	m.stats.BitsTx += bits
	pig := uint64(len(f.Neighbors) * packet.NeighborInfoBits)
	m.stats.PiggybackBitsTx += pig
	if f.Kind.IsControl() {
		m.stats.ControlBitsTx += bits
	} else {
		m.stats.DataBitsTx += bits
	}
	if f.Kind.IsExtra() {
		m.stats.ExtraFramesTx++
	}
}

// BeginArrival is called by the medium when signal energy from frame f
// starts arriving at this modem. levelDB is the received level; dur is
// the on-air duration; syncable reports whether the source is within
// nominal communication range (signals from farther away contribute
// interference but are never decoded). The modem schedules its own
// end-of-arrival processing.
func (m *Modem) BeginArrival(f *packet.Frame, levelDB float64, dur time.Duration, syncable bool) {
	m.eng.ScheduleIn(dur, sim.PriorityPHY, m.Arrive(f, levelDB, syncable))
}

// Arrive is BeginArrival for a medium that schedules the end itself:
// it returns the end handler, to run once at sim.PriorityPHY when the
// frame's on-air duration has elapsed.
func (m *Modem) Arrive(f *packet.Frame, levelDB float64, syncable bool) func() {
	a := m.newArrival(levelDB)
	a.frame = f
	a.corruptTx = m.transmitting
	a.decodable = syncable && !m.down && m.model.Decodable(m.sinrDB(levelDB, 0))
	return m.startArrival(a)
}

// InjectInterference adds raw noise energy at this modem for dur: an
// arrival with no frame behind it that is never decodable but degrades
// the SINR of everything concurrently in the air (bursty biological or
// shipping noise, injected by the fault layer). The energy also shows
// up on carrier sense, so backoff logic reacts to it like any other
// busy-channel episode.
func (m *Modem) InjectInterference(levelDB float64, dur time.Duration) {
	m.eng.ScheduleIn(dur, sim.PriorityPHY, m.startArrival(m.newArrival(levelDB)))
}

// arrivalSlab is how many records newArrival carves from one
// allocation when the free list is empty.
const arrivalSlab = 8

// newArrival takes a zeroed record from the free list (minting one from
// the slab, with its bound fire func, only when the list is empty) and
// stamps the received level every arrival has.
func (m *Modem) newArrival(levelDB float64) *arrival {
	var a *arrival
	if n := len(m.free); n > 0 {
		a = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		if len(m.slab) == 0 {
			m.slab = make([]arrival, arrivalSlab)
		}
		a = &m.slab[0]
		m.slab = m.slab[1:]
		a.fire = func() { m.endArrival(a) }
	}
	a.levelDB = levelDB
	return a
}

func (m *Modem) startArrival(a *arrival) func() {
	m.arrivals = append(m.arrivals, a)
	m.refreshInterference()
	m.updateEnergyState()
	return a.fire
}

// refreshInterference recomputes, for every active arrival, the total
// power of the other active arrivals, and folds it into each arrival's
// running maximum. Interference peaks only when an arrival starts, so
// calling this from BeginArrival captures every arrival's worst case.
// A lone arrival's interference is its own power minus itself, zero,
// so nothing changes until a second arrival overlaps it.
func (m *Modem) refreshInterference() {
	if len(m.arrivals) < 2 {
		return
	}
	var total float64
	for _, a := range m.arrivals {
		if a.levelLin == 0 {
			a.levelLin = acoustic.DBToLin(a.levelDB)
		}
		total += a.levelLin
	}
	for _, a := range m.arrivals {
		other := total - a.levelLin
		if other > a.maxOtherLin {
			a.maxOtherLin = other
		}
	}
}

func (m *Modem) endArrival(a *arrival) {
	for i, b := range m.arrivals {
		if b == a {
			m.arrivals = append(m.arrivals[:i], m.arrivals[i+1:]...)
			break
		}
	}
	// Copy out and recycle before any callback: a listener may start a
	// new arrival or transmission that reuses the record.
	f, levelDB, maxOtherLin, corruptTx, decodable := a.frame, a.levelDB, a.maxOtherLin, a.corruptTx, a.decodable
	*a = arrival{fire: a.fire}
	m.free = append(m.free, a)
	m.updateEnergyState()

	if !decodable {
		// Pure interference energy: a real modem never synchronizes to
		// it, so nothing is reported.
		return
	}
	if corruptTx {
		m.stats.TxSelfLoss++
		m.notifyLost(f, LossTxDuringRx)
		return
	}
	perr := m.per.PER(m.sinrDB(levelDB, maxOtherLin), f.Bits())
	if perr > 0 && (perr >= 1 || m.rng.Float64() < perr) {
		if maxOtherLin > 0 {
			m.stats.Collisions++
			m.notifyLost(f, LossCollision)
		} else {
			m.stats.PERLosses++
			m.notifyLost(f, LossChannel)
		}
		return
	}
	m.stats.FramesRx++
	m.stats.BitsRx += uint64(f.Bits())
	obs.FrameRx{Node: m.id, Frame: f}.Emit(m.rec, m.eng.Now())
	if m.listener != nil {
		m.listener.OnFrameReceived(f)
	}
}

// sinrDB is m.model.SINRDBFromLin(levelDB, interferenceLin), bit for
// bit, against the cached noise: interference-free arrivals cost no
// transcendental call, the rest one log.
func (m *Modem) sinrDB(levelDB, interferenceLin float64) float64 {
	if interferenceLin == 0 {
		return levelDB - m.noiseDB
	}
	return levelDB - acoustic.LinToDB(m.noiseLin+interferenceLin)
}

func (m *Modem) notifyLost(f *packet.Frame, r LossReason) {
	obs.FrameLoss{
		Node: m.id, Frame: f, ReasonCode: uint8(r), Reason: r.String(),
	}.Emit(m.rec, m.eng.Now())
	if m.listener != nil {
		m.listener.OnFrameLost(f, r)
	}
}

func (m *Modem) updateEnergyState() {
	state := energy.StateIdle
	switch {
	case m.transmitting:
		state = energy.StateTx
	case m.down:
		state = energy.StateSleep
	case m.Receiving():
		state = energy.StateRx
	}
	if err := m.meter.SetState(m.eng.Now(), state); err != nil {
		// Time never goes backwards inside one engine; this is a bug.
		panic(err)
	}
}
