package mac

import (
	"testing"
	"testing/quick"
)

func TestQueueFIFO(t *testing.T) {
	var q Queue
	for i := uint32(1); i <= 3; i++ {
		q.Push(AppPacket{Seq: i, Dst: 9})
	}
	if q.Len() != 3 {
		t.Fatalf("Len=%d", q.Len())
	}
	if p, ok := q.Peek(); !ok || p.Seq != 1 {
		t.Fatalf("Peek = %+v, %v", p, ok)
	}
	for i := uint32(1); i <= 3; i++ {
		p, ok := q.Pop()
		if !ok || p.Seq != i {
			t.Fatalf("Pop %d = %+v, %v", i, p, ok)
		}
	}
	if _, ok := q.Pop(); ok {
		t.Error("Pop from empty succeeded")
	}
	if _, ok := q.Peek(); ok {
		t.Error("Peek from empty succeeded")
	}
}

func TestQueueBoundedDropsTail(t *testing.T) {
	q := Queue{MaxLen: 2}
	if !q.Push(AppPacket{Seq: 1}) || !q.Push(AppPacket{Seq: 2}) {
		t.Fatal("pushes below bound failed")
	}
	if q.Push(AppPacket{Seq: 3}) {
		t.Fatal("push above bound succeeded")
	}
	if q.Dropped != 1 {
		t.Errorf("Dropped = %d", q.Dropped)
	}
	if p, _ := q.Peek(); p.Seq != 1 {
		t.Error("head changed by overflow")
	}
}

func TestQueueFirstForAndRemoveAt(t *testing.T) {
	var q Queue
	q.Push(AppPacket{Seq: 1, Dst: 5})
	q.Push(AppPacket{Seq: 2, Dst: 7})
	q.Push(AppPacket{Seq: 3, Dst: 7})
	if i := q.FirstFor(7); i != 1 {
		t.Fatalf("FirstFor(7) = %d", i)
	}
	if i := q.FirstFor(42); i != -1 {
		t.Fatalf("FirstFor(42) = %d", i)
	}
	p, ok := q.RemoveAt(1)
	if !ok || p.Seq != 2 {
		t.Fatalf("RemoveAt = %+v, %v", p, ok)
	}
	if q.Len() != 2 {
		t.Fatalf("Len = %d after removal", q.Len())
	}
	if _, ok := q.RemoveAt(5); ok {
		t.Error("RemoveAt out of range succeeded")
	}
	if _, ok := q.RemoveAt(-1); ok {
		t.Error("RemoveAt(-1) succeeded")
	}
}

// Property: any interleaving of pushes and pops preserves FIFO order of
// surviving elements.
func TestQueueOrderProperty(t *testing.T) {
	f := func(ops []uint8) bool {
		var q Queue
		var model []uint32
		next := uint32(1)
		for _, op := range ops {
			if op%3 == 0 && len(model) > 0 {
				p, ok := q.Pop()
				if !ok || p.Seq != model[0] {
					return false
				}
				model = model[1:]
			} else {
				q.Push(AppPacket{Seq: next})
				model = append(model, next)
				next++
			}
		}
		if q.Len() != len(model) {
			return false
		}
		for _, want := range model {
			p, ok := q.Pop()
			if !ok || p.Seq != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestCountersAddAndLatency(t *testing.T) {
	a := Counters{Generated: 1, DeliveredPackets: 2, LatencySum: 10}
	b := Counters{Generated: 3, DeliveredPackets: 3, LatencySum: 20}
	sum := a.Add(b)
	if sum.Generated != 4 || sum.DeliveredPackets != 5 || sum.LatencySum != 30 {
		t.Errorf("Add = %+v", sum)
	}
	if sum.MeanLatency() != 6 {
		t.Errorf("MeanLatency = %v", sum.MeanLatency())
	}
	if (Counters{}).MeanLatency() != 0 {
		t.Error("MeanLatency of empty counters not 0")
	}
}
