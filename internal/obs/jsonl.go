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
// staged in one buffer on the recording goroutine and written to the
// sink each time the buffer passes jsonlFlushAt, on Flush and on Close.
// Call Flush before reading the output mid-run and Close when the
// stream is done.
type JSONL struct {
	w      io.Writer
	cur    []byte
	err    error // first encode error; the offending line is dropped
	werr   error // first write error; nothing more reaches w
	closed bool

	// atCache short-circuits formatting the "at" header when several
	// events share one instant (slot boundaries, one broadcast's
	// fan-out): float formatting is the encoder's single largest cost.
	lastAt sim.Time
	atLen  uint8
	atBuf  [24]byte
}

// The staging buffer is written out once it crosses jsonlFlushAt; the
// headroom above the threshold absorbs one worst-case trace line
// without reallocating.
const (
	jsonlBufCap  = 1<<15 + 1024
	jsonlFlushAt = 1 << 15
)

// NewJSONL returns a trace-v2 exporter writing to w. Close it when the
// stream is done: lines staged since the last write reach w only on
// Flush or Close.
func NewJSONL(w io.Writer) *JSONL {
	return &JSONL{w: w, cur: make([]byte, 0, jsonlBufCap)}
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
		t[k] = appendJSONString(nil, k.String())
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
		b = appendJSONString(b, k.String())
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

// num appends a float; a non-finite value poisons the stream exactly
// as encoding/json's UnsupportedValueError used to (sticky error, line
// dropped).
func (j *JSONL) num(b []byte, f float64) []byte {
	b, ok := appendJSONFloat(b, f)
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
	b = j.num(b, at.Seconds())
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
		b = appendFrame(b, ev.Frame)
		b = append(b, `,"delay":`...)
		b = j.num(b, ev.Delay.Seconds())
		b = append(b, `,"level_db":`...)
		b = j.num(b, ev.LevelDB)
	case *TxBegin:
		b = append(b, `,"event":"phy.tx","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = appendFrame(b, ev.Frame)
		b = append(b, `,"dur":`...)
		b = j.num(b, ev.Dur.Seconds())
	case *FrameRx:
		b = append(b, `,"event":"phy.rx","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = appendFrame(b, ev.Frame)
	case *FrameLoss:
		b = append(b, `,"event":"phy.loss","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = appendFrame(b, ev.Frame)
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, ev.Reason)
	case *MACState:
		b = append(b, `,"event":"mac.state","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"from":`...)
		b = appendJSONString(b, ev.From)
		b = append(b, `,"to":`...)
		b = appendJSONString(b, ev.To)
		b = append(b, `,"slot":`...)
		b = appendInt(b, ev.Slot)
	case *Contention:
		b = append(b, `,"event":"mac.contention","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"peer":`...)
		b = appendUint(b, uint64(uint16(ev.Peer)))
		b = append(b, `,"outcome":`...)
		b = appendJSONString(b, ev.Outcome)
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
		b = appendJSONString(b, ev.Period)
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
		b = j.num(b, ev.Latency.Seconds())
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
		b = appendJSONString(b, ev.Action)
		if ev.Reason != "" {
			b = append(b, `,"reason":`...)
			b = appendJSONString(b, ev.Reason)
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
		b = appendFrame(b, ev.Frame)
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, ev.Reason)
		if ev.Detail != "" {
			b = append(b, `,"detail":`...)
			b = appendJSONString(b, ev.Detail)
		}
	case *Fault:
		b = append(b, `,"event":"fault.event","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"kind":`...)
		b = appendJSONString(b, ev.Kind)
		b = append(b, `,"action":`...)
		b = appendJSONString(b, ev.Action)
		if ev.Detail != "" {
			b = append(b, `,"detail":`...)
			b = appendJSONString(b, ev.Detail)
		}
	case *Recovery:
		b = append(b, `,"event":"mac.recovery","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		if uint16(ev.Peer) != 0 {
			b = append(b, `,"peer":`...)
			b = appendUint(b, uint64(uint16(ev.Peer)))
		}
		b = append(b, `,"action":`...)
		b = appendJSONString(b, ev.Action)
		if ev.Detail != "" {
			b = append(b, `,"detail":`...)
			b = appendJSONString(b, ev.Detail)
		}
	case *PacketDrop:
		b = append(b, `,"event":"mac.drop","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"peer":`...)
		b = appendUint(b, uint64(uint16(ev.Peer)))
		b = append(b, `,"reason":`...)
		b = appendJSONString(b, ev.Reason)
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
		b = appendJSONString(b, ev.Op)
		if ev.Sojourn > 0 {
			b = append(b, `,"sojourn":`...)
			b = j.num(b, ev.Sojourn.Seconds())
		}
	case *Overload:
		b = append(b, `,"event":"mac.overload","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"action":`...)
		b = appendJSONString(b, ev.Action)
		b = append(b, `,"len":`...)
		b = appendInt(b, int64(ev.Len))
	case *Invariant:
		b = append(b, `,"event":"mac.invariant","node":`...)
		b = appendUint(b, uint64(uint16(ev.Node)))
		b = append(b, `,"check":`...)
		b = appendJSONString(b, ev.Check)
		if ev.Detail != "" {
			b = append(b, `,"detail":`...)
			b = appendJSONString(b, ev.Detail)
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
		b = appendJSONString(b, e.Tag())
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
