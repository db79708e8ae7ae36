package obs

import (
	"fmt"
	"runtime/debug"
	"sync"

	"ewmac/internal/sim"
)

// Stager moves a recorder fan-out off the goroutine that records into
// it. Record copies each event into a reused batch, one typed slice
// per event type plus an order log, and a full batch goes to one
// observer goroutine, which replays it in event order into the wrapped
// recorder. Each replayed record is a pointer into the batch, reclaimed
// when the batch is reused, so the ownership rule of emit.go holds on
// the replay side unchanged. The wrapped recorder therefore sees every
// event in the order it was recorded, on one goroutine, never
// concurrently — only not on the recording one.
//
// A Stager has stagerBatches batches, and one is always being filled,
// so the recorder runs at most two batches behind the producer; the
// producer blocks only when both are still being replayed. A recorder
// that keeps the observer goroutine busy therefore slows the producer
// down rather than growing a backlog.
//
// An event type Record does not know (a test's own, or a value rather
// than a pointer) is not staged: Record waits until the observer has
// replayed everything before it, then records it inline.
//
// Close must be called, normally or on an abort path, to stop the
// observer goroutine. A panic in the wrapped recorder is recovered on
// the observer goroutine and raised again, as a *RecorderPanic, on the
// recording goroutine at its next hand-off or at Close.
type Stager struct {
	out  Recorder
	cur  *batch      // the batch being filled; nil once handed off mid-panic
	full chan *batch // filled batches, to the observer
	free chan *batch // replayed batches, back to the producer
	done chan struct{}
	// fault is the observer's recovered panic; written before done
	// closes, read only after.
	fault  *RecorderPanic
	closed bool
}

// RecorderPanic is a panic raised by a recorder on a Stager's observer
// goroutine, re-raised on the recording goroutine.
type RecorderPanic struct {
	Value any    // what the recorder panicked with
	Stack []byte // the observer goroutine's stack at the panic
}

func (p *RecorderPanic) Error() string { return fmt.Sprintf("obs: recorder panicked: %v", p.Value) }

const (
	// batchEvents is how many events a batch holds before it is handed
	// to the observer. Larger batches amortize the hand-off; the
	// typed slices of a batch grow to at most this many entries each.
	batchEvents = 512
	// stagerBatches is how many batches one Stager circulates.
	stagerBatches = 3
)

// NewStager starts the observer goroutine that replays into out.
func NewStager(out Recorder) *Stager {
	s := &Stager{
		out:  out,
		full: make(chan *batch, stagerBatches),
		free: make(chan *batch, stagerBatches),
		done: make(chan struct{}),
	}
	s.cur = getBatch()
	for range stagerBatches - 1 {
		s.free <- getBatch()
	}
	go s.observe()
	return s
}

// observe is the observer goroutine: it replays each full batch and
// hands it back, until full is closed or a recorder panics.
func (s *Stager) observe() {
	defer close(s.done)
	defer func() {
		if v := recover(); v != nil {
			s.fault = &RecorderPanic{Value: v, Stack: debug.Stack()}
		}
	}()
	for b := range s.full {
		b.replay(s.out)
		s.free <- b
	}
}

// Record implements Recorder. Events recorded after Close are dropped.
func (s *Stager) Record(at sim.Time, e Event) {
	if s.closed {
		return
	}
	b := s.cur
	var k eventKind
	switch v := e.(type) {
	case *FrameEmit:
		k, b.frameEmit = kFrameEmit, append(b.frameEmit, *v)
	case *TxBegin:
		k, b.txBegin = kTxBegin, append(b.txBegin, *v)
	case *FrameRx:
		k, b.frameRx = kFrameRx, append(b.frameRx, *v)
	case *FrameLoss:
		k, b.frameLoss = kFrameLoss, append(b.frameLoss, *v)
	case *MACState:
		k, b.macState = kMACState, append(b.macState, *v)
	case *Contention:
		k, b.contention = kContention, append(b.contention, *v)
	case *SlotPeriod:
		k, b.slotPeriod = kSlotPeriod, append(b.slotPeriod, *v)
	case *Delivery:
		k, b.delivery = kDelivery, append(b.delivery, *v)
	case *Extra:
		k, b.extra = kExtra, append(b.extra, *v)
	case *Recovery:
		k, b.recovery = kRecovery, append(b.recovery, *v)
	case *PacketDrop:
		k, b.packetDrop = kPacketDrop, append(b.packetDrop, *v)
	case *QueueDepth:
		k, b.queueDepth = kQueueDepth, append(b.queueDepth, *v)
	case *Overload:
		k, b.overload = kOverload, append(b.overload, *v)
	case *OracleViolation:
		k, b.oracleViolation = kOracleViolation, append(b.oracleViolation, *v)
	case *Fault:
		k, b.fault = kFault, append(b.fault, *v)
	case *Invariant:
		k, b.invariant = kInvariant, append(b.invariant, *v)
	case *EngineSample:
		k, b.engineSample = kEngineSample, append(b.engineSample, *v)
	default:
		s.drain()
		s.out.Record(at, e)
		return
	}
	b.order = append(b.order, staged{at: at, kind: k})
	if len(b.order) == batchEvents {
		s.handOff()
	}
}

// handOff sends the current batch to the observer and takes a replayed
// one back.
func (s *Stager) handOff() {
	s.full <- s.cur // never blocks: full has room for every batch
	s.cur = nil
	s.cur = s.take()
}

// take receives one replayed batch, or re-raises the observer's panic
// if it died. The done check comes first so a dead observer is seen at
// the first hand-off after it died, even while a batch is free.
func (s *Stager) take() *batch {
	select {
	case <-s.done:
	default:
		select {
		case b := <-s.free:
			return b
		case <-s.done:
		}
	}
	// The observer exits early only on a recorder panic.
	s.Stop()
	panic(s.fault)
}

// drain hands the current batch over and waits until the observer has
// replayed every batch, so the caller may record into out directly.
func (s *Stager) drain() {
	s.full <- s.cur
	s.cur = nil
	var held [stagerBatches]*batch
	for i := range held {
		held[i] = s.take()
	}
	s.cur = held[0]
	for _, b := range held[1:] {
		s.free <- b
	}
}

// Close replays every staged event, stops the observer goroutine and
// re-raises a panic any recorder raised on it. Safe to call twice, and
// after Stop.
func (s *Stager) Close() {
	if s.closed {
		return
	}
	s.Stop()
	if s.fault != nil {
		panic(s.fault)
	}
}

// Stop is Close without the re-raise, for abort paths that are already
// unwinding: the observer replays what is staged and exits, and Stop
// returns once it has. Safe to call twice.
func (s *Stager) Stop() {
	if s.closed {
		return
	}
	s.closed = true
	if s.cur != nil {
		s.full <- s.cur
		s.cur = nil
	}
	close(s.full)
	<-s.done
	// Whatever the observer left in either channel goes back to the
	// pool; a batch a panicking recorder was replaying is dropped.
	for b := range s.full {
		putBatch(b)
	}
	for {
		select {
		case b := <-s.free:
			putBatch(b)
		default:
			return
		}
	}
}

// eventKind names the typed slice an order-log entry indexes.
type eventKind uint8

const (
	kFrameEmit eventKind = iota
	kTxBegin
	kFrameRx
	kFrameLoss
	kMACState
	kContention
	kSlotPeriod
	kDelivery
	kExtra
	kRecovery
	kPacketDrop
	kQueueDepth
	kOverload
	kOracleViolation
	kFault
	kInvariant
	kEngineSample
	numKinds
)

// staged is one order-log entry: the event's instant and the slice
// holding it. Each slice fills in event order, so an entry's index in
// its slice is the count of earlier entries of its kind.
type staged struct {
	at   sim.Time
	kind eventKind
}

// batch is one hand-off unit: the order log and a typed slice per
// event type. Batches are reset, not freed, and pooled across Stagers,
// so a run staging into warm batches allocates nothing.
type batch struct {
	order           []staged
	frameEmit       []FrameEmit
	txBegin         []TxBegin
	frameRx         []FrameRx
	frameLoss       []FrameLoss
	macState        []MACState
	contention      []Contention
	slotPeriod      []SlotPeriod
	delivery        []Delivery
	extra           []Extra
	recovery        []Recovery
	packetDrop      []PacketDrop
	queueDepth      []QueueDepth
	overload        []Overload
	oracleViolation []OracleViolation
	fault           []Fault
	invariant       []Invariant
	engineSample    []EngineSample
}

// replay records the batch's events into r in order and empties it.
func (b *batch) replay(r Recorder) {
	var next [numKinds]int32
	for _, e := range b.order {
		i := next[e.kind]
		next[e.kind]++
		switch e.kind {
		case kFrameEmit:
			r.Record(e.at, &b.frameEmit[i])
		case kTxBegin:
			r.Record(e.at, &b.txBegin[i])
		case kFrameRx:
			r.Record(e.at, &b.frameRx[i])
		case kFrameLoss:
			r.Record(e.at, &b.frameLoss[i])
		case kMACState:
			r.Record(e.at, &b.macState[i])
		case kContention:
			r.Record(e.at, &b.contention[i])
		case kSlotPeriod:
			r.Record(e.at, &b.slotPeriod[i])
		case kDelivery:
			r.Record(e.at, &b.delivery[i])
		case kExtra:
			r.Record(e.at, &b.extra[i])
		case kRecovery:
			r.Record(e.at, &b.recovery[i])
		case kPacketDrop:
			r.Record(e.at, &b.packetDrop[i])
		case kQueueDepth:
			r.Record(e.at, &b.queueDepth[i])
		case kOverload:
			r.Record(e.at, &b.overload[i])
		case kOracleViolation:
			r.Record(e.at, &b.oracleViolation[i])
		case kFault:
			r.Record(e.at, &b.fault[i])
		case kInvariant:
			r.Record(e.at, &b.invariant[i])
		case kEngineSample:
			r.Record(e.at, &b.engineSample[i])
		}
	}
	b.reset()
}

// reset empties every slice, keeping its capacity. The frame pointers
// and strings left in the backing arrays are overwritten by the next
// fill; until then they keep at most one batch of frames alive.
func (b *batch) reset() {
	b.order = b.order[:0]
	b.frameEmit = b.frameEmit[:0]
	b.txBegin = b.txBegin[:0]
	b.frameRx = b.frameRx[:0]
	b.frameLoss = b.frameLoss[:0]
	b.macState = b.macState[:0]
	b.contention = b.contention[:0]
	b.slotPeriod = b.slotPeriod[:0]
	b.delivery = b.delivery[:0]
	b.extra = b.extra[:0]
	b.recovery = b.recovery[:0]
	b.packetDrop = b.packetDrop[:0]
	b.queueDepth = b.queueDepth[:0]
	b.overload = b.overload[:0]
	b.oracleViolation = b.oracleViolation[:0]
	b.fault = b.fault[:0]
	b.invariant = b.invariant[:0]
	b.engineSample = b.engineSample[:0]
}

// batchPool keeps replayed batches for the next Stager. A plain list
// rather than a sync.Pool: a garbage collection empties a sync.Pool,
// and regrowing a batch's slices costs more than the batch is worth
// holding. It keeps enough for a few Stagers at once.
var batchPool struct {
	sync.Mutex
	free []*batch
}

const batchPoolMax = 4 * stagerBatches

func getBatch() *batch {
	batchPool.Lock()
	defer batchPool.Unlock()
	if n := len(batchPool.free); n > 0 {
		b := batchPool.free[n-1]
		batchPool.free = batchPool.free[:n-1]
		return b
	}
	return &batch{order: make([]staged, 0, batchEvents)}
}

func putBatch(b *batch) {
	b.reset()
	batchPool.Lock()
	defer batchPool.Unlock()
	if len(batchPool.free) < batchPoolMax {
		batchPool.free = append(batchPool.free, b)
	}
}
