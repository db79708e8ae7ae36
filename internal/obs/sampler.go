package obs

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"time"

	"ewmac/internal/sim"
)

// Column is one time-series quantity. Fn is sampled at observer
// priority, so it always sees settled state for the instant.
type Column struct {
	Name string
	Fn   func() float64
}

// Sampler periodically samples a set of columns and writes one CSV row
// per interval. The first column is always t_s (simulation time in
// seconds); the engine event-loop health columns (queue depth,
// events/s, virtual-vs-wall ratio) are built in, and callers append
// domain columns (backlog, slot utilization, energy, ...).
//
// The sampler also emits an EngineSample event per interval to the
// optional recorder, so engine health shows up in the trace-v2 stream
// alongside protocol events.
type Sampler struct {
	eng   *sim.Engine
	bw    *bufio.Writer
	cols  []Column
	every time.Duration
	rec   Recorder
	err   error

	// cell is the scratch buffer CSV numbers are formatted into, so a
	// sample formats without allocating.
	cell []byte

	lastExec uint64
	lastAt   sim.Time
	lastWall time.Time
}

// NewSampler builds a sampler writing CSV to w every interval. Columns
// are sampled in order after the built-in engine columns.
func NewSampler(eng *sim.Engine, w io.Writer, every time.Duration, cols ...Column) (*Sampler, error) {
	if eng == nil {
		return nil, fmt.Errorf("obs: sampler needs an engine")
	}
	if w == nil {
		return nil, fmt.Errorf("obs: sampler needs a writer")
	}
	if every <= 0 {
		every = time.Second
	}
	return &Sampler{
		eng:   eng,
		bw:    bufio.NewWriterSize(w, 1<<15),
		cols:  cols,
		every: every,
	}, nil
}

// SetRecorder mirrors engine samples onto the event bus (nil disables).
func (s *Sampler) SetRecorder(r Recorder) { s.rec = r }

// Start writes the CSV header and schedules sampling every interval
// until the given horizon (inclusive).
func (s *Sampler) Start(until sim.Time) {
	s.bw.WriteString("t_s,queue_depth,events_per_s,virt_wall_ratio")
	for _, c := range s.cols {
		s.bw.WriteByte(',')
		s.bw.WriteString(c.Name)
	}
	s.bw.WriteByte('\n')
	s.lastExec = s.eng.Executed()
	s.lastAt = s.eng.Now()
	s.lastWall = time.Now()
	s.scheduleNext(until)
}

func (s *Sampler) scheduleNext(until sim.Time) {
	next := s.eng.Now().Add(s.every)
	if next.After(until) {
		return
	}
	s.eng.ScheduleAt(next, sim.PriorityObserver, func() {
		s.sample()
		s.scheduleNext(until)
	})
}

func (s *Sampler) sample() {
	now := s.eng.Now()
	wall := time.Now()
	exec := s.eng.Executed()

	dVirt := now.Sub(s.lastAt).Seconds()
	dWall := wall.Sub(s.lastWall).Seconds()
	var eps, ratio float64
	if dVirt > 0 {
		eps = float64(exec-s.lastExec) / dVirt
	}
	if dWall > 0 {
		ratio = dVirt / dWall
	}
	s.lastExec, s.lastAt, s.lastWall = exec, now, wall

	depth := s.eng.Pending()
	s.cell = strconv.AppendFloat(s.cell[:0], now.Seconds(), 'g', -1, 64)
	s.bw.Write(s.cell)
	s.writeCell(float64(depth))
	s.writeCell(eps)
	s.writeCell(ratio)
	for _, c := range s.cols {
		s.writeCell(c.Fn())
	}
	s.bw.WriteByte('\n')

	if s.rec != nil {
		EngineSample{
			QueueDepth:       depth,
			EventsPerSec:     eps,
			VirtualWallRatio: ratio,
		}.Emit(s.rec, now)
	}
}

func (s *Sampler) writeCell(v float64) {
	s.bw.WriteByte(',')
	s.cell = strconv.AppendFloat(s.cell[:0], v, 'g', -1, 64)
	s.bw.Write(s.cell)
}

// Flush drains the CSV buffer.
func (s *Sampler) Flush() error {
	if err := s.bw.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	return s.err
}
