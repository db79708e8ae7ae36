package obs

import (
	"encoding/json"
	"fmt"
	"io"

	"ewmac/internal/packet"
	"ewmac/internal/sim"
)

// JSONL is the trace-v2 exporter: it renders every event as one JSON
// object per line under a single schema. Every line carries
//
//	"at"    — simulation time in fractional seconds
//	"event" — the stable Event.Tag()
//
// plus the event's own flattened fields (frame fields appear as
// kind/seq/origin/bits; durations as fractional seconds).
//
// The encoders are hand-rolled (encode.go) and byte-identical to the
// reflection-based encoding/json output the exporter once used, so
// golden trace hashes and tracetool are unaffected. Lines are
// collected in one buffer on the recording goroutine and written to
// the sink each time the buffer passes jsonlFlushAt, and on Close. The
// sink therefore lags the recorded events by up to one buffer: Close
// the exporter before reading its output.
type JSONL struct {
	w      io.Writer
	cur    []byte
	err    error // first encode error; the offending line is dropped
	werr   error // first write error; nothing more reaches w
	closed bool

	// atCache short-circuits formatting the "at" header when several
	// events share one instant (slot boundaries, one broadcast's
	// fan-out): copying the cached digits is cheaper than writing them
	// again, even from integer nanoseconds.
	lastAt sim.Time
	atLen  uint8
	atBuf  [24]byte

	// frames caches the flattened fields of the frames named most
	// recently: a frame is immutable once transmitted, so its pointer
	// names its bytes. Several ways, not one, because broadcasts in
	// flight interleave their fan-out lines.
	frames frameCache
}

// frameWays is how many frames' fields the cache keeps. In captured
// chaos traces a one-entry cache missed on 26–32% of frame lines and
// an 8-way one on about 1%.
const frameWays = 8

// frameCache is a small least-recently-used map from a frame to its
// flattened fields. The way buffers are carved from one allocation
// and reused, so a miss rewrites a buffer instead of allocating.
type frameCache struct {
	frame [frameWays]*packet.Frame
	used  [frameWays]uint64 // tick of the way's last use; the least is evicted
	buf   [frameWays][]byte
	tick  uint64
}

// frameWayCap holds any frame whose fields fit in it; a longer one
// grows its way's buffer once.
const frameWayCap = 128

func newFrameCache() frameCache {
	var c frameCache
	all := make([]byte, frameWays*frameWayCap)
	for i := range c.buf {
		c.buf[i] = all[i*frameWayCap : i*frameWayCap : (i+1)*frameWayCap]
	}
	return c
}

// fields returns f's flattened fields, formatting them only when f is
// not among the cached frames.
func (c *frameCache) fields(f *packet.Frame) []byte {
	c.tick++
	lru := 0
	for i, g := range c.frame {
		if g == f {
			c.used[i] = c.tick
			return c.buf[i]
		}
		if c.used[i] < c.used[lru] {
			lru = i
		}
	}
	c.frame[lru], c.used[lru] = f, c.tick
	c.buf[lru] = appendFrame(c.buf[lru][:0], f)
	return c.buf[lru]
}

// The staging buffer is written out once it crosses jsonlFlushAt; the
// headroom above the threshold absorbs one worst-case trace line
// without reallocating.
const (
	jsonlBufCap  = 1<<15 + 1024
	jsonlFlushAt = 1 << 15
)

// NewJSONL returns a trace-v2 exporter writing to w. Close it when the
// stream is done: lines buffered since the last write reach w only on
// Close.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, cur: make([]byte, 0, jsonlBufCap), frames: newFrameCache()}
}

// Err returns the first encode error or, failing that, the first write
// error, if any.
func (j *JSONL) Err() error {
	if j.err != nil {
		return j.err
	}
	return j.werr
}

// write hands the staged lines to the sink and empties the buffer.
func (j *JSONL) write() {
	if len(j.cur) > 0 && j.werr == nil {
		_, j.werr = j.w.Write(j.cur)
	}
	j.cur = j.cur[:0]
}

// Close flushes and releases the staging buffer; it does not close the
// underlying writer. Records after Close are dropped. Safe to call
// twice.
func (j *JSONL) Close() error {
	if !j.closed {
		j.write()
		j.closed = true
		j.cur = nil
	}
	return j.Err()
}

// kindJSON pre-quotes the defined frame kind names — constant safe
// ASCII — so appendFrame neither consults the Kind.String name map nor
// scans for escapes on every frame event.
var kindJSON = func() (t [16][]byte) {
	for k := packet.Kind(1); k.Valid(); k++ {
		t[k] = AppendJSONString(nil, k.String())
	}
	return
}()

// appendFrame appends the flattened frame portion shared by the frame
// events: src/dst/kind/seq/origin(omitempty)/bits/xid(omitempty).
func appendFrame(b []byte, f *packet.Frame) []byte {
	b = append(b, `,"src":`...)
	b = appendUint(b, uint64(uint16(f.Src)))
	b = append(b, `,"dst":`...)
	b = appendUint(b, uint64(uint16(f.Dst)))
	b = append(b, `,"kind":`...)
	if k := f.Kind; int(k) < len(kindJSON) && kindJSON[k] != nil {
		b = append(b, kindJSON[k]...)
	} else {
		b = AppendJSONString(b, k.String())
	}
	b = append(b, `,"seq":`...)
	b = appendUint(b, uint64(f.Seq))
	if uint16(f.Origin) != 0 {
		b = append(b, `,"origin":`...)
		b = appendUint(b, uint64(uint16(f.Origin)))
	}
	b = append(b, `,"bits":`...)
	b = appendInt(b, int64(f.Bits()))
	if f.XID != 0 {
		b = append(b, `,"xid":`...)
		b = appendUint(b, f.XID)
	}
	return b
}

// frame appends f's flattened fields through the frame cache.
func (j *JSONL) frame(b []byte, f *packet.Frame) []byte {
	if f == nil { // the empty ways hold nil: never a cache hit
		return appendFrame(b, f)
	}
	return append(b, j.frames.fields(f)...)
}

// num appends a float; a non-finite value poisons the stream exactly
// as encoding/json's UnsupportedValueError used to (sticky error, line
// dropped).
func (j *JSONL) num(b []byte, f float64) []byte {
	b, ok := AppendJSONFloat(b, f)
	if !ok && j.err == nil {
		j.err = fmt.Errorf("obs: jsonl: unsupported value: %v", f)
	}
	return b
}

// appendAt appends the `{"at":<seconds>` line prefix, reusing the
// formatted digits while consecutive events share an instant.
func (j *JSONL) appendAt(b []byte, at sim.Time) []byte {
	b = append(b, `{"at":`...)
	if at == j.lastAt && j.atLen > 0 {
		return append(b, j.atBuf[:j.atLen]...)
	}
	mark := len(b)
	b = AppendJSONSeconds(b, int64(at), at.Seconds())
	j.lastAt = at
	j.atLen = uint8(copy(j.atBuf[:], b[mark:]))
	return b
}

// Record implements Recorder.
func (j *JSONL) Record(at sim.Time, e Event) {
	if j.err != nil || j.werr != nil || j.closed {
		return
	}
	b := j.cur
	mark := len(b)
	b = j.appendAt(b, at)
	// Each case appends its `,"event":"…"` header as a constant: the
	// tags are fixed safe ASCII, so quoting them is a literal, not an
	// escape scan. The fidelity tests pin every literal to Tag().
	switch ev := e.(type) {
	case *FrameEmit:
		b = append(b, `,"event":"chan.emit"`...)
		b = j.frame(b, ev.Frame)
		b = append(b, `,"delay":`...)
		b = AppendJSONSeconds(b, int64(ev.Delay), ev.Delay.Seconds())
		b = append(b, `,"level_db":`...)
		b = j.num(b, ev.LevelDB)
	case *TxBegin:
		b = append(b, `,"event":"phy.tx","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = j.frame(b, ev.Frame)
		b = append(b, `,"dur":`...)
		b = AppendJSONSeconds(b, int64(ev.Dur), ev.Dur.Seconds())
	case *FrameRx:
		b = append(b, `,"event":"phy.rx","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = j.frame(b, ev.Frame)
	case *FrameLoss:
		b = append(b, `,"event":"phy.loss","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = j.frame(b, ev.Frame)
		b = append(b, `,"reason":`...)
		b = AppendJSONString(b, ev.Reason)
	case *MACState:
		b = append(b, `,"event":"mac.state","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"from":`...)
		b = AppendJSONString(b, ev.From)
		b = append(b, `,"to":`...)
		b = AppendJSONString(b, ev.To)
		b = append(b, `,"slot":`...)
		b = appendInt(b, ev.Slot)
	case *Contention:
		b = append(b, `,"event":"mac.contention","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"peer":`...)
		b = appendUint(b, uint64(uint16(ev.Peer)))
		b = append(b, `,"outcome":`...)
		b = AppendJSONString(b, ev.Outcome)
		b = append(b, `,"slot":`...)
		b = appendInt(b, ev.Slot)
		if ev.XID != 0 {
			b = append(b, `,"xid":`...)
			b = appendUint(b, ev.XID)
		}
	case *SlotPeriod:
		b = append(b, `,"event":"mac.period","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"peer":`...)
		b = appendUint(b, uint64(uint16(ev.Peer)))
		b = append(b, `,"period":`...)
		b = AppendJSONString(b, ev.Period)
		b = append(b, `,"slot":`...)
		b = appendInt(b, ev.Slot)
	case *Delivery:
		b = append(b, `,"event":"mac.deliver","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"origin":`...)
		b = appendUint(b, uint64(uint16(ev.Origin)))
		b = append(b, `,"seq":`...)
		b = appendUint(b, uint64(ev.Seq))
		b = append(b, `,"bits":`...)
		b = appendInt(b, int64(ev.Bits))
		b = append(b, `,"latency":`...)
		b = AppendJSONSeconds(b, int64(ev.Latency), ev.Latency.Seconds())
		if ev.Extra {
			b = append(b, `,"extra":true`...)
		}
		if ev.XID != 0 {
			b = append(b, `,"xid":`...)
			b = appendUint(b, ev.XID)
		}
	case *Extra:
		b = append(b, `,"event":"mac.extra","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"peer":`...)
		b = appendUint(b, uint64(uint16(ev.Peer)))
		b = append(b, `,"action":`...)
		b = AppendJSONString(b, ev.Action)
		if ev.Reason != "" {
			b = append(b, `,"reason":`...)
			b = AppendJSONString(b, ev.Reason)
		}
		if ev.XID != 0 {
			b = append(b, `,"xid":`...)
			b = appendUint(b, ev.XID)
		}
		if ev.Parent != 0 {
			b = append(b, `,"parent":`...)
			b = appendUint(b, ev.Parent)
		}
	case *OracleViolation:
		b = append(b, `,"event":"oracle.violation","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = j.frame(b, ev.Frame)
		b = append(b, `,"reason":`...)
		b = AppendJSONString(b, ev.Reason)
		if ev.Detail != "" {
			b = append(b, `,"detail":`...)
			b = AppendJSONString(b, ev.Detail)
		}
	case *Fault:
		b = append(b, `,"event":"fault.event","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"kind":`...)
		b = AppendJSONString(b, ev.Kind)
		b = append(b, `,"action":`...)
		b = AppendJSONString(b, ev.Action)
		if ev.Detail != "" {
			b = append(b, `,"detail":`...)
			b = AppendJSONString(b, ev.Detail)
		}
	case *Recovery:
		b = append(b, `,"event":"mac.recovery","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		if uint16(ev.Peer) != 0 {
			b = append(b, `,"peer":`...)
			b = appendUint(b, uint64(uint16(ev.Peer)))
		}
		b = append(b, `,"action":`...)
		b = AppendJSONString(b, ev.Action)
		if ev.Detail != "" {
			b = append(b, `,"detail":`...)
			b = AppendJSONString(b, ev.Detail)
		}
	case *PacketDrop:
		b = append(b, `,"event":"mac.drop","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"peer":`...)
		b = appendUint(b, uint64(uint16(ev.Peer)))
		b = append(b, `,"reason":`...)
		b = AppendJSONString(b, ev.Reason)
		if uint16(ev.Origin) != 0 {
			b = append(b, `,"origin":`...)
			b = appendUint(b, uint64(uint16(ev.Origin)))
		}
		b = append(b, `,"seq":`...)
		b = appendUint(b, uint64(ev.Seq))
	case *QueueDepth:
		b = append(b, `,"event":"mac.queue","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"len":`...)
		b = appendInt(b, int64(ev.Len))
		b = append(b, `,"op":`...)
		b = AppendJSONString(b, ev.Op)
		if ev.Sojourn > 0 {
			b = append(b, `,"sojourn":`...)
			b = AppendJSONSeconds(b, int64(ev.Sojourn), ev.Sojourn.Seconds())
		}
	case *Overload:
		b = append(b, `,"event":"mac.overload","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"action":`...)
		b = AppendJSONString(b, ev.Action)
		b = append(b, `,"len":`...)
		b = appendInt(b, int64(ev.Len))
	case *Invariant:
		b = append(b, `,"event":"mac.invariant","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"check":`...)
		b = AppendJSONString(b, ev.Check)
		if ev.Detail != "" {
			b = append(b, `,"detail":`...)
			b = AppendJSONString(b, ev.Detail)
		}
	case *EngineSample:
		b = append(b, `,"event":"engine.sample","queue_depth":`...)
		b = appendInt(b, int64(ev.QueueDepth))
		b = append(b, `,"events_per_s":`...)
		b = j.num(b, ev.EventsPerSec)
		b = append(b, `,"virt_wall":`...)
		b = j.num(b, ev.VirtualWallRatio)
	default:
		// Future event types degrade to a tagged envelope rather than
		// being dropped, so readers can at least count them. This cold
		// path may allocate; every simulator event takes a fast case
		// above.
		b = append(b, `,"event":`...)
		b = AppendJSONString(b, e.Tag())
		raw, err := json.Marshal(e)
		if err != nil {
			if j.err == nil {
				j.err = err
			}
			j.cur = b[:mark]
			return
		}
		b = append(b, `,"data":`...)
		b = append(b, raw...)
	}
	if j.err != nil {
		j.cur = b[:mark]
		return
	}
	b = append(b, '}', '\n')
	j.cur = b
	if len(j.cur) >= jsonlFlushAt {
		j.write()
	}
}
