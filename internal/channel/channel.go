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
// Each broadcast in flight is one pooled wave whose two engine lanes
// begin and end its rays' arrivals (direct ray or surface echo), so it
// takes two heap entries and allocates nothing. Every receiver gets the
// transmitted frame itself. Frames are immutable from
// phy.Modem.Transmit on: the sender, every receiver and every recorder
// share one *packet.Frame. Ownership rule, as for obs's pooled records:
// a wave is recycled as its last end runs, before the modem sees that
// end; nothing may retain one past that point.
package channel

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// rxGeom is one receiver entry of a source's geometry list: everything
// Broadcast needs per in-interference-range neighbor.
type rxGeom struct {
	rx        *phy.Modem
	dst       packet.NodeID
	delay     time.Duration
	levelDB   float64
	surfLevel float64 // the surface echo's level, if order holds one
	syncable  bool
}

// wave is one broadcast in flight: its rays in arrival order, and a
// lane each to begin and end their arrivals, which share the frame's
// duration and so end in the order they began. Waves are recycled
// through the channel's free list as their last end runs.
type wave struct {
	c        *Channel
	frame    *packet.Frame
	dur      time.Duration
	rays     []ray
	begun    int
	arrivals *sim.Lane
	ends     *sim.Lane
	lastEnd  func() // the last ray's end handler, run by endFn
	// arriveFn and endFn are bound once, so pushes allocate nothing.
	arriveFn func()
	endFn    func()
}

// ray is one receiver-side copy of a wave's frame.
type ray struct {
	rx       *phy.Modem
	levelDB  float64
	syncable bool
}

// Channel is the shared acoustic medium.
type Channel struct {
	eng *sim.Engine
	net *topology.Network
	// modems holds the registered modems, indexed by NodeID-1.
	modems []*phy.Modem
	rec    obs.Recorder

	scratch []rxGeom      // the latest geometry build, reused by every Broadcast
	order   []uint64      // its rays in arrival order (see rayKey)
	sorter  raySorter     // orders them, with its own reused scratch
	waves   []*wave       // recycled waves
	emit    obs.FrameEmit // the record Broadcast's fan-out reuses
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
	return nil
}

// SetRecorder installs the observability event sink (nil to disable).
// Every scheduled delivery is recorded as an obs.FrameEmit at emission
// time.
func (c *Channel) SetRecorder(r obs.Recorder) { c.rec = r }

// buildGeoms rebuilds c.scratch, the receiver list for srcNode, and
// c.order, its rays in arrival order. It iterates in node-ID order —
// arrivals scheduled for the same instant execute in scheduling order,
// so the list order must be deterministic across runs.
func (c *Channel) buildGeoms(srcNode *topology.Node) {
	out, order := c.scratch[:0], c.order[:0]
	model := c.net.Model
	paths := model.Paths() // the per-model constants, once per broadcast
	maxDist := model.MaxRangeM * InterferenceRangeFactor
	sourceDB := acoustic.SourceLevelDB(model.TxPowerW)
	srcDepth := srcNode.Pos.Depth()
	lo, hi := uint64(math.MaxUint64), uint64(0) // the key range, for the sorter
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
			delay:   paths.Delay(dist, srcDepth, dstNode.Pos.Depth()),
			levelDB: paths.LevelAtDB(sourceDB, dist),
			// Beyond the nominal communication range (Table 2: 1.5 km)
			// the modem never synchronizes to the signal, but its energy
			// still interferes at full physical strength.
			syncable: dist <= model.MaxRangeM,
		}
		k := rayKey(g.delay, 2*len(out))
		order = append(order, k)
		lo, hi = min(lo, k), max(hi, k)
		if model.SurfaceReflection {
			// Two-ray extension: the surface-bounced copy arrives later
			// and weaker, as pure interference (a real modem stays
			// locked to the direct ray).
			rDelay, rLevel := model.SurfacePath(srcNode.Pos, dstNode.Pos)
			if rDelay > g.delay {
				g.surfLevel = rLevel
				k := rayKey(rDelay, 2*len(out)+1)
				order = append(order, k)
				hi = max(hi, k)
			}
		}
		out = append(out, g)
	}
	c.scratch, c.order = out, c.sorter.sort(order, lo, hi)
}

// rayBits is the width of a ray in a sort key: a source has fewer than
// 1<<16 receivers (NodeID is 16 bits), so fewer than 1<<17 rays.
const rayBits = 17

// rayKey packs a ray's delay above the ray: its receiver's index in
// the geometry list <<1, plus 1 for the surface echo, which is also
// its seq's offset in the broadcast's reserved block. So keys sort by
// delay, then seq; 47 bits hold the delay of any path under 200,000 km.
func rayKey(d time.Duration, ray int) uint64 { return uint64(d)<<rayBits | uint64(ray) }

// raySorter orders a broadcast's ray keys in linear time on average: a
// counting pass scatters them by value into between n/2 and n buckets,
// and one insertion pass then sorts each bucket where it lies. Keys are
// unique (each holds its ray), so the result is the one slices.Sort
// gives. Should the insertion pass run past maxInsertion moves per key
// (a clustered geometry overfilling a bucket), slices.Sort finishes
// the job, so the worst case stays O(n log n). Its buffers are reused:
// a broadcast allocates nothing once they have grown to the largest
// fan-out.
type raySorter struct {
	spare  []uint64 // the scatter target; it swaps with the keys' slice
	counts []int32  // per-bucket counts, then bucket ends
}

// maxInsertion is the most keys sorted by insertion alone, and the
// average moves per key the insertion pass may make.
const maxInsertion = 16

// sort orders keys, whose least and greatest are lo and hi, and returns
// the sorted slice. That is keys' or the sorter's spare buffer; the
// other becomes the spare, so the caller must drop keys.
func (s *raySorter) sort(keys []uint64, lo, hi uint64) []uint64 {
	n := len(keys)
	if n <= maxInsertion {
		insertionSort(keys, n*n)
		return keys
	}
	// A key's bucket is its offset from lo, shifted right until the
	// widest offset fits in the nb = 2^lb buckets.
	lb := bits.Len(uint(n)) - 1
	nb := 1 << lb
	shift := max(bits.Len64(hi-lo)-lb, 0)
	counts := slices.Grow(s.counts[:0], nb+1)[:nb+1]
	clear(counts)
	for _, k := range keys {
		counts[(k-lo)>>shift+1]++
	}
	for b := 1; b <= nb; b++ {
		counts[b] += counts[b-1]
	}
	// counts[b] is now where bucket b starts; scattering advances it.
	out := slices.Grow(s.spare[:0], n)[:n]
	for _, k := range keys {
		b := (k - lo) >> shift
		out[counts[b]] = k
		counts[b]++
	}
	s.spare, s.counts = keys[:0], counts
	if !insertionSort(out, maxInsertion*n) {
		slices.Sort(out)
	}
	return out
}

// insertionSort sorts keys in place unless that takes more than limit
// moves, and reports whether it finished. A key moves only past larger
// keys, so on bucketed keys it moves only within its bucket.
func insertionSort(keys []uint64, limit int) bool {
	for i := 1; i < len(keys); i++ {
		k, j := keys[i], i
		for ; j > 0 && keys[j-1] > k; j-- {
			keys[j] = keys[j-1]
		}
		keys[j] = k
		if limit -= i - j; limit < 0 {
			return false
		}
	}
	return true
}

// Broadcast implements phy.Medium: it fans f out to every other modem
// within interference range, with per-pair delay and received level
// computed from the current node positions. Every receiver gets f
// itself: a frame is immutable once transmitted.
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
	c.buildGeoms(srcNode)
	geoms, order := c.scratch, c.order
	if len(geoms) == 0 {
		return nil
	}
	now := c.eng.Now()
	if c.rec != nil {
		// A recorder owns the record only until Record returns.
		for i := range geoms {
			g := &geoms[i]
			c.emit = obs.FrameEmit{Src: src, Dst: g.dst, Frame: f, Delay: g.delay, LevelDB: g.levelDB}
			c.rec.Record(now, &c.emit)
		}
	}
	// Seqs follow geometry order, the order scheduling one ray at a time
	// would draw them in; rays are pushed in arrival order. The wave
	// copies out of the geometry, which the next Broadcast rebuilds.
	base := c.eng.Reserve(2 * len(geoms))
	w := c.newWave(f, dur, len(order))
	for _, k := range order {
		i := k & (1<<rayBits - 1)
		g := &geoms[i>>1]
		r := ray{rx: g.rx, levelDB: g.levelDB, syncable: g.syncable}
		if i&1 != 0 {
			r.levelDB, r.syncable = g.surfLevel, false
		}
		w.rays = append(w.rays, r)
		w.arrivals.Push(now.Add(time.Duration(k>>rayBits)), base+i, w.arriveFn)
	}
	return nil
}

// newWave takes a wave for f's n rays from the free list, or allocates
// one.
func (c *Channel) newWave(f *packet.Frame, dur time.Duration, n int) *wave {
	var w *wave
	if k := len(c.waves); k > 0 {
		w = c.waves[k-1]
		c.waves = c.waves[:k-1]
	} else {
		w = &wave{c: c, arrivals: c.eng.NewLane(sim.PriorityPHY), ends: c.eng.NewLane(sim.PriorityPHY)}
		w.arriveFn, w.endFn = w.arrive, w.end
	}
	w.frame, w.dur, w.rays = f, dur, slices.Grow(w.rays, n)
	w.arrivals.Grow(n)
	w.ends.Grow(n)
	return w
}

// arrive begins the next ray's arrival and queues its end, under the
// seq BeginArrival would have drawn. The last end goes through endFn,
// which recycles the wave.
func (w *wave) arrive() {
	r := &w.rays[w.begun]
	w.begun++
	end := r.rx.Arrive(w.frame, r.levelDB, r.syncable)
	if w.begun == len(w.rays) {
		w.lastEnd, end = end, w.endFn
	}
	eng := w.c.eng
	w.ends.Push(eng.Now().Add(w.dur), eng.Reserve(1), end)
}

// end runs the last ray's end, recycling the wave first: the handler
// may transmit and so reuse it.
func (w *wave) end() {
	end := w.lastEnd
	w.frame, w.rays, w.begun, w.lastEnd = nil, w.rays[:0], 0, nil
	w.c.waves = append(w.c.waves, w)
	end()
}

// Modem returns the registered modem for id, or nil.
func (c *Channel) Modem(id packet.NodeID) *phy.Modem {
	if i := int(id) - 1; i >= 0 && i < len(c.modems) {
		return c.modems[i]
	}
	return nil
}
