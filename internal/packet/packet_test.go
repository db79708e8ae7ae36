package packet

import (
	"testing"
	"time"
)

func validFrame() *Frame {
	return &Frame{
		Kind:      KindRTS,
		Src:       3,
		Dst:       7,
		Seq:       42,
		Timestamp: 1500 * time.Millisecond,
		PairDelay: 333 * time.Millisecond,
		RP:        0.71,
		DataBits:  2048,
	}
}

func TestKindClassification(t *testing.T) {
	cases := []struct {
		kind    Kind
		control bool
		extra   bool
	}{
		{KindHello, true, false},
		{KindRTS, true, false},
		{KindCTS, true, false},
		{KindData, false, false},
		{KindAck, true, false},
		{KindEXR, true, true},
		{KindEXC, true, true},
		{KindEXData, false, true},
		{KindEXAck, true, true},
		{KindRTA, true, true},
		{KindStolenData, false, true},
		{KindNbrUpdate, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.kind.String(), func(t *testing.T) {
			if !tc.kind.Valid() {
				t.Fatalf("%v not valid", tc.kind)
			}
			if tc.kind.IsControl() != tc.control {
				t.Errorf("IsControl = %v, want %v", tc.kind.IsControl(), tc.control)
			}
			if tc.kind.IsData() == tc.control {
				t.Errorf("IsData inconsistent with IsControl")
			}
			if tc.kind.IsExtra() != tc.extra {
				t.Errorf("IsExtra = %v, want %v", tc.kind.IsExtra(), tc.extra)
			}
		})
	}
	if Kind(0).Valid() || kindEnd.Valid() {
		t.Error("out-of-range kinds reported valid")
	}
}

func TestBits(t *testing.T) {
	f := validFrame()
	if f.Bits() != ControlBits {
		t.Errorf("control frame bits = %d, want %d", f.Bits(), ControlBits)
	}
	f.Neighbors = []NeighborInfo{{ID: 1, Delay: time.Second}, {ID: 2, Delay: time.Second}}
	if f.Bits() != ControlBits+2*NeighborInfoBits {
		t.Errorf("piggybacked control bits = %d", f.Bits())
	}
	d := &Frame{Kind: KindData, Src: 1, Dst: 2, DataBits: 2048}
	if d.Bits() != DataHeaderBits+2048 {
		t.Errorf("data frame bits = %d, want %d", d.Bits(), DataHeaderBits+2048)
	}
}

func TestDuration(t *testing.T) {
	// 64 bits at 12 kbps = 5.333 ms.
	got := Duration(64, 12000)
	bits := 64.0
	want := time.Duration(bits / 12000 * float64(time.Second))
	if got != want {
		t.Errorf("Duration = %v, want %v", got, want)
	}
	if Duration(64, 0) != 0 || Duration(0, 12000) != 0 {
		t.Error("degenerate durations should be 0")
	}
	f := &Frame{Kind: KindData, Src: 1, Dst: 2, DataBits: 2048}
	if f.TxDuration(12000) != Duration(DataHeaderBits+2048, 12000) {
		t.Error("TxDuration disagrees with Duration(Bits())")
	}
}

func TestValidate(t *testing.T) {
	if err := validFrame().Validate(); err != nil {
		t.Fatalf("valid frame rejected: %v", err)
	}
	cases := []struct {
		name string
		edit func(*Frame)
	}{
		{"bad kind", func(f *Frame) { f.Kind = 0 }},
		{"no src", func(f *Frame) { f.Src = Nobody }},
		{"broadcast src", func(f *Frame) { f.Src = Broadcast }},
		{"no dst", func(f *Frame) { f.Dst = Nobody }},
		{"empty data", func(f *Frame) { f.Kind = KindData; f.DataBits = 0 }},
		{"negative payload", func(f *Frame) { f.DataBits = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := validFrame()
			tc.edit(f)
			if err := f.Validate(); err == nil {
				t.Error("Validate accepted bad frame")
			}
		})
	}
}

func TestNodeIDString(t *testing.T) {
	if Nobody.String() != "n∅" || Broadcast.String() != "n*" || NodeID(7).String() != "n7" {
		t.Error("NodeID.String formatting changed")
	}
}
