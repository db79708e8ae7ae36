package obs

import (
	"sync"

	"ewmac/internal/sim"
)

// This file is the non-boxing record path. Every event type but
// FrameEmit has an Emit method that stages the value into a pooled
// record and passes a pointer through the Recorder interface, so the
// steady-state cost of a fully-instrumented run is a pool round-trip
// instead of one interface box + one struct allocation per event.
// FrameEmit's one producer, the channel's broadcast fan-out, skips even
// the pool: it refills one record of its own for every receiver.
//
// Ownership rule: the record handed to Recorder.Record is owned by the
// emitter and is reclaimed the moment Record returns. Recorders must
// copy any field they keep — retaining the record itself corrupts a
// later event. The one exception is the *packet.Frame fields: a frame
// is immutable from phy.Modem.Transmit on and outlives the record, so
// frame-level consumers (the oracle taps) may hold it exactly as
// before.
//
// Consumers therefore type-switch on pointer types (*FrameEmit,
// *TxBegin, ...); a value event never reaches the bus from the
// simulator's own producers.

// recPool is a typed sync.Pool of event records. sync.Pool rather than
// a bare free list: parallel sweeps emit from many engines at once,
// and the per-P caches make Get/Put contention-free on that path.
type recPool[T any, PT interface {
	*T
	Event
}] struct {
	pool sync.Pool
}

// emit stages v in a pooled record, records it, and reclaims the
// record. Nil-safe, so emission sites can keep a single guard (or
// none, on cold paths).
func (p *recPool[T, PT]) emit(r Recorder, at sim.Time, v T) {
	if r == nil {
		return
	}
	x, _ := p.pool.Get().(PT)
	if x == nil {
		x = PT(new(T))
	}
	*x = v
	r.Record(at, x)
	p.pool.Put(x)
}

var (
	txBeginPool      recPool[TxBegin, *TxBegin]
	frameRxPool      recPool[FrameRx, *FrameRx]
	frameLossPool    recPool[FrameLoss, *FrameLoss]
	macStatePool     recPool[MACState, *MACState]
	contentionPool   recPool[Contention, *Contention]
	slotPeriodPool   recPool[SlotPeriod, *SlotPeriod]
	deliveryPool     recPool[Delivery, *Delivery]
	extraPool        recPool[Extra, *Extra]
	recoveryPool     recPool[Recovery, *Recovery]
	packetDropPool   recPool[PacketDrop, *PacketDrop]
	queueDepthPool   recPool[QueueDepth, *QueueDepth]
	overloadPool     recPool[Overload, *Overload]
	oracleViolPool   recPool[OracleViolation, *OracleViolation]
	faultPool        recPool[Fault, *Fault]
	invariantPool    recPool[Invariant, *Invariant]
	engineSamplePool recPool[EngineSample, *EngineSample]
)

// Emit records the event through r at the given instant without
// heap-boxing it; see the ownership rule at the top of this file.
func (v TxBegin) Emit(r Recorder, at sim.Time) { txBeginPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v FrameRx) Emit(r Recorder, at sim.Time) { frameRxPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v FrameLoss) Emit(r Recorder, at sim.Time) { frameLossPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v MACState) Emit(r Recorder, at sim.Time) { macStatePool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v Contention) Emit(r Recorder, at sim.Time) { contentionPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v SlotPeriod) Emit(r Recorder, at sim.Time) { slotPeriodPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v Delivery) Emit(r Recorder, at sim.Time) { deliveryPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v Extra) Emit(r Recorder, at sim.Time) { extraPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v Recovery) Emit(r Recorder, at sim.Time) { recoveryPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v PacketDrop) Emit(r Recorder, at sim.Time) { packetDropPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v QueueDepth) Emit(r Recorder, at sim.Time) { queueDepthPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v Overload) Emit(r Recorder, at sim.Time) { overloadPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v OracleViolation) Emit(r Recorder, at sim.Time) { oracleViolPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v Fault) Emit(r Recorder, at sim.Time) { faultPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v Invariant) Emit(r Recorder, at sim.Time) { invariantPool.emit(r, at, v) }

// Emit records the event through r; see TxBegin.Emit.
func (v EngineSample) Emit(r Recorder, at sim.Time) { engineSamplePool.emit(r, at, v) }
