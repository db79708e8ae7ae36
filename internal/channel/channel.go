// Package channel connects modems through the acoustic environment: it
// is the broadcast medium. For every transmission it computes, per
// receiver, the propagation delay and received level from the current
// geometry, then schedules the arrival at that receiver's modem.
//
// Delay and level are sampled at emission time. For moving nodes this
// means the channel always uses true current geometry while the MAC
// layer works from its learned delay tables — so staleness in the
// protocol's knowledge (a failure mode the paper discusses in §5) is
// faithfully represented rather than assumed away.
//
// Each per-receiver delivery (direct ray or surface echo) is a pooled
// record with a pre-bound handler, and every receiver gets the
// transmitted frame itself, so a broadcast allocates nothing. Frames
// are immutable from phy.Modem.Transmit on: the sender, every receiver
// and every recorder share one *packet.Frame. Ownership rule, as for
// obs's pooled records: a delivery is recycled when its handler runs,
// before the modem sees the arrival; nothing may retain one past that
// point.
package channel

import (
	"errors"
	"fmt"
	"time"

	"ewmac/internal/acoustic"
	"ewmac/internal/obs"
	"ewmac/internal/packet"
	"ewmac/internal/phy"
	"ewmac/internal/sim"
	"ewmac/internal/topology"
)

// InterferenceRangeFactor scales the nominal communication range to the
// distance at which a transmission still contributes interference. At
// 2× the nominal range the received level is ~15 dB below the edge of
// the communication range (practical spreading), small enough to ignore
// beyond it but large enough to matter within.
const InterferenceRangeFactor = 2.0

// rxGeom is one precomputed receiver entry of a source's geometry list:
// everything Broadcast needs per in-interference-range neighbor, so the
// hot path does zero trigonometry while the topology is static.
type rxGeom struct {
	rx        *phy.Modem
	dst       packet.NodeID
	delay     time.Duration
	levelDB   float64
	surfDelay time.Duration
	surfLevel float64
	syncable  bool
	surf      bool
}

// srcGeoms is one source's geometry state, stamped with the topology
// epoch and modem-registration generation of its latest build. A build
// lives in the channel's scratch list; the source keeps its own copy
// in list only once a second build comes under the same stamp, so
// geometry that drift invalidates before it is reused costs no memory.
type srcGeoms struct {
	epoch uint64
	gen   uint64
	built bool // a build happened under (epoch, gen)
	kept  bool // list holds that build
	list  []rxGeom
}

// delivery is one scheduled per-receiver arrival (direct or surface
// ray). Deliveries are recycled through the channel's free list: a
// record returns to the pool as its handler runs, before it calls
// BeginArrival, so nothing may retain a *delivery past that point.
type delivery struct {
	rx       *phy.Modem
	frame    *packet.Frame
	levelDB  float64
	dur      time.Duration
	syncable bool
	// fire runs the delivery. It is bound once when the record is first
	// allocated and survives recycling, so scheduling allocates nothing.
	fire func()
}

// Channel is the shared acoustic medium.
type Channel struct {
	eng *sim.Engine
	net *topology.Network
	// modems holds the registered modems, indexed by NodeID-1.
	modems []*phy.Modem
	rec    obs.Recorder

	// geo caches per-source receiver geometry, indexed by NodeID-1. A
	// kept list is valid while the topology epoch and registration
	// generation it was built under are both current.
	geo      []srcGeoms
	regGen   uint64 // bumped by Register; invalidates every cache entry
	cacheOff bool
	scratch  []rxGeom // target of every build
	free     []*delivery
	slab     []delivery // fresh records not yet handed out

	// cacheHits counts broadcasts served from the geometry cache.
	cacheHits uint64

	// Deliveries counts scheduled frame arrivals (per receiver).
	deliveries uint64
}

// ErrUnknownSource is returned by Broadcast when the transmitting node
// is not part of the deployed topology. The transmission is dropped and
// reported as an invariant event rather than crashing the run: a
// mis-wired harness should surface as an observable error, not a panic
// inside the event loop.
var ErrUnknownSource = errors.New("channel: broadcast from unknown source")

var _ phy.Medium = (*Channel)(nil)

// New returns an empty channel over the given deployed network.
func New(eng *sim.Engine, net *topology.Network) (*Channel, error) {
	if eng == nil {
		return nil, errors.New("channel: nil engine")
	}
	if net == nil {
		return nil, errors.New("channel: nil network")
	}
	return &Channel{
		eng:    eng,
		net:    net,
		modems: make([]*phy.Modem, net.Len()),
		geo:    make([]srcGeoms, net.Len()),
	}, nil
}

// Register attaches a modem. Every node in the topology must have
// exactly one registered modem before traffic starts.
func (c *Channel) Register(m *phy.Modem) error {
	if m == nil {
		return errors.New("channel: nil modem")
	}
	if c.net.Node(m.ID()) == nil {
		return fmt.Errorf("channel: modem %v has no node in topology", m.ID())
	}
	i := int(m.ID()) - 1
	if c.modems[i] != nil {
		return fmt.Errorf("channel: duplicate modem for %v", m.ID())
	}
	c.modems[i] = m
	c.regGen++
	return nil
}

// SetCacheEnabled force-disables (or re-enables) the geometry cache.
// With the cache off every broadcast recomputes pairwise geometry from
// scratch — the reference path the determinism tests compare against.
func (c *Channel) SetCacheEnabled(on bool) { c.cacheOff = !on }

// SetRecorder installs the observability event sink (nil to disable).
// Every scheduled delivery is recorded as an obs.FrameEmit at emission
// time.
func (c *Channel) SetRecorder(r obs.Recorder) { c.rec = r }

// Deliveries reports how many frame arrivals have been scheduled.
func (c *Channel) Deliveries() uint64 { return c.deliveries }

// buildGeoms computes the receiver list for srcNode into out (reused
// between rebuilds), iterating in node-ID order — arrivals scheduled
// for the same instant execute in scheduling order, so the list order
// must be deterministic across runs.
func (c *Channel) buildGeoms(srcNode *topology.Node, out []rxGeom) []rxGeom {
	model := c.net.Model
	maxDist := model.MaxRangeM * InterferenceRangeFactor
	sourceDB := acoustic.SourceLevelDB(model.TxPowerW)
	for _, dstNode := range c.net.Nodes() {
		id := dstNode.ID
		if id == srcNode.ID {
			continue
		}
		rx := c.Modem(id)
		if rx == nil {
			continue
		}
		dist := srcNode.Pos.Dist(dstNode.Pos)
		if dist > maxDist {
			continue
		}
		g := rxGeom{
			rx:      rx,
			dst:     id,
			delay:   model.Delay(srcNode.Pos, dstNode.Pos),
			levelDB: model.LevelAtDB(sourceDB, dist),
			// Beyond the nominal communication range (Table 2: 1.5 km)
			// the modem never synchronizes to the signal, but its energy
			// still interferes at full physical strength.
			syncable: dist <= model.MaxRangeM,
		}
		if model.SurfaceReflection {
			// Two-ray extension: the surface-bounced copy arrives later
			// and weaker, as pure interference (a real modem stays
			// locked to the direct ray).
			rDelay, rLevel := model.SurfacePath(srcNode.Pos, dstNode.Pos)
			if rDelay > g.delay {
				g.surf = true
				g.surfDelay = rDelay
				g.surfLevel = rLevel
			}
		}
		out = append(out, g)
	}
	return out
}

// geomsFor returns the receiver list for src: the source's kept copy
// when the topology epoch and modem registrations are unchanged since
// it was built, a fresh build otherwise. A second build under the same
// stamp is kept; with the cache off nothing is. The returned slice is
// owned by the channel and only valid until the next Broadcast.
func (c *Channel) geomsFor(src packet.NodeID, srcNode *topology.Node) []rxGeom {
	sg := &c.geo[int(src)-1]
	epoch := c.net.Epoch()
	same := !c.cacheOff && sg.built && sg.epoch == epoch && sg.gen == c.regGen
	if same && sg.kept {
		c.cacheHits++
		return sg.list
	}
	c.scratch = c.buildGeoms(srcNode, c.scratch[:0])
	switch {
	case same:
		sg.list = append(sg.list[:0], c.scratch...)
		sg.kept = true
	case !c.cacheOff:
		sg.epoch, sg.gen, sg.built, sg.kept = epoch, c.regGen, true, false
	}
	return c.scratch
}

// Broadcast implements phy.Medium: it fans f out to every other modem
// within interference range, with per-pair delay and received level
// computed from the current node positions (cached while the topology
// is static). Every receiver gets f itself: a frame is immutable once
// transmitted.
func (c *Channel) Broadcast(src packet.NodeID, f *packet.Frame, dur time.Duration) error {
	srcNode := c.net.Node(src)
	if srcNode == nil {
		obs.Invariant{
			Node:   src,
			Check:  "channel.broadcast.src",
			Detail: "transmission from node outside topology dropped",
		}.Emit(c.rec, c.eng.Now())
		return fmt.Errorf("%w: %v", ErrUnknownSource, src)
	}
	geoms := c.geomsFor(src, srcNode)
	if len(geoms) == 0 {
		return nil
	}
	now := c.eng.Now()
	for i := range geoms {
		g := &geoms[i]
		if c.rec != nil {
			obs.FrameEmit{
				Src: src, Dst: g.dst, Frame: f, Delay: g.delay, LevelDB: g.levelDB,
			}.Emit(c.rec, now)
		}
		c.deliveries++
		// The delivery copies out of the cache entry: the cache slice
		// may be rebuilt in place before the scheduled arrivals run.
		c.deliver(g.delay, g.rx, f, g.levelDB, dur, g.syncable)
		if g.surf {
			c.deliver(g.surfDelay, g.rx, f, g.surfLevel, dur, false)
		}
	}
	return nil
}

// deliverySlab is how many records deliver carves from one allocation
// when the free list is empty.
const deliverySlab = 64

// deliver schedules f's arrival at rx after delay, on a pooled record.
func (c *Channel) deliver(delay time.Duration, rx *phy.Modem, f *packet.Frame, levelDB float64, dur time.Duration, syncable bool) {
	var d *delivery
	if n := len(c.free); n > 0 {
		d = c.free[n-1]
		c.free = c.free[:n-1]
	} else {
		if len(c.slab) == 0 {
			c.slab = make([]delivery, deliverySlab)
		}
		d = &c.slab[0]
		c.slab = c.slab[1:]
		d.fire = func() {
			rx, f, levelDB, dur, syncable := d.rx, d.frame, d.levelDB, d.dur, d.syncable
			*d = delivery{fire: d.fire}
			c.free = append(c.free, d)
			rx.BeginArrival(f, levelDB, dur, syncable)
		}
	}
	d.rx, d.frame, d.levelDB, d.dur, d.syncable = rx, f, levelDB, dur, syncable
	c.eng.ScheduleIn(delay, sim.PriorityPHY, d.fire)
}

// Modem returns the registered modem for id, or nil.
func (c *Channel) Modem(id packet.NodeID) *phy.Modem {
	if i := int(id) - 1; i >= 0 && i < len(c.modems) {
		return c.modems[i]
	}
	return nil
}
