package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"
)

// layer is one module of the stack, in call order. A span belongs to the
// layer whose code runs while it is the innermost open span.
type layer uint8

const (
	layerVFS layer = iota
	layerMicrofs
	layerWAL
	layerStripe
	layerTCPPlane
	layerHostPool
	nLayers
)

var layerNames = [nLayers]string{"vfs", "microfs", "wal", "stripe", "tcpplane", "hostpool"}

// op names the call a span covers; the JSONL name is "<layer>.<op>".
type op uint8

const (
	opMkdir op = iota
	opOpen
	opWrite
	opWriteV
	opRead
	opFsync
	opClose
	opRename
	opUnlink
	opReadDir
	opStat
	opMount
	opNew
	opRecover
	opSnapshot
	opFlush
	nOps
)

var opNames = [nOps]string{"mkdir", "open", "write", "writev", "read", "fsync", "close", "rename",
	"unlink", "readdir", "stat", "mount", "new", "recover", "snapshot", "flush"}

// phase is one barrier-to-barrier step of an epoch.
type phase uint8

const (
	phaseCkpt phase = iota
	phaseSnapshot
	phaseRestart
	nPhases
)

var phaseNames = [nPhases]string{"ckpt", "snapshot", "restart"}

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder's base; parent indexes the same rank's span slice
// (-1 for a call the benchmark made itself).
type span struct {
	start, end int64
	parent     int32
	epoch      int32
	layer      layer
	op         op
	phase      phase
	child      uint8 // below a striped plane: which child
}

// recorder holds one rank's spans in memory. The rank's own goroutine and
// the goroutines a striped plane fans out to append to it, so appends
// take the mutex; epoch and phase are set by the coordinator between
// phases, before it starts the rank goroutines.
type recorder struct {
	base time.Time

	on    bool // false during warm-up epochs
	epoch int32
	phase phase

	mu    sync.Mutex
	spans []span
}

// seam is one layer boundary of one rank (and, below a striped plane, of
// one child). up is the boundary above it; cur is its open span, so a
// span's parent is the innermost open span above it in the same rank. A
// nil seam records nothing: the untraced pass runs the same wrappers
// with nil seams.
type seam struct {
	rec   *recorder
	layer layer
	child uint8
	up    *seam
	cur   int32
}

func newSeam(rec *recorder, l layer, child int, up *seam) *seam {
	if rec == nil {
		return nil
	}
	return &seam{rec: rec, layer: l, child: uint8(child), up: up, cur: -1}
}

// begin opens a span and returns its index for end.
func (s *seam) begin(o op) int32 {
	if s == nil || !s.rec.on {
		return -1
	}
	parent := int32(-1)
	for u := s.up; u != nil; u = u.up {
		if u.cur >= 0 {
			parent = u.cur
			break
		}
	}
	r := s.rec
	r.mu.Lock()
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{
		start: int64(time.Since(r.base)), parent: parent,
		epoch: r.epoch, layer: s.layer, op: o, phase: r.phase, child: s.child,
	})
	r.mu.Unlock()
	s.cur = id
	return id
}

func (s *seam) end(id int32) {
	if id < 0 {
		return
	}
	now := int64(time.Since(s.rec.base))
	r := s.rec
	r.mu.Lock()
	r.spans[id].end = now
	r.mu.Unlock()
	s.cur = -1
}

// selfTimes attributes a rank's traced time to layers: at every instant
// the time belongs to the innermost open spans (those with no open
// child), split equally when several are open at once, which happens
// only below a striped plane's fan-out. The result is indexed
// [epoch][phase][layer] in nanoseconds; per phase the layers sum to the
// time some span of the rank was open, so what is missing from the phase
// wall is the benchmark's own code and waiting at the barrier.
func selfTimes(spans []span, epochs int) [][nPhases][nLayers]float64 {
	out := make([][nPhases][nLayers]float64, epochs)
	type event struct {
		at   int64
		idx  int32
		open bool
	}
	events := make([]event, 0, 2*len(spans))
	for i, sp := range spans {
		if sp.end > sp.start {
			events = append(events, event{sp.start, int32(i), true}, event{sp.end, int32(i), false})
		}
	}
	// At one instant closes come first, children closing before their
	// parents; opens follow, parents first. Span indices grow in begin
	// order, so a parent's index is below its children's.
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.at != b.at {
			return a.at < b.at
		}
		if a.open != b.open {
			return !a.open
		}
		if a.open {
			return a.idx < b.idx
		}
		return a.idx > b.idx
	})
	openKids := make([]int32, len(spans))
	var frontier [nLayers]int
	width := 0
	last := int64(0)
	var cur *[nLayers]float64
	for _, ev := range events {
		sp := spans[ev.idx]
		if width > 0 && ev.at > last && cur != nil {
			dt := float64(ev.at-last) / float64(width)
			for l, n := range frontier {
				cur[l] += dt * float64(n)
			}
		}
		last = ev.at
		cur = &out[sp.epoch][sp.phase]
		if ev.open {
			if p := sp.parent; p >= 0 && spans[p].end > spans[p].start {
				if openKids[p] == 0 {
					frontier[spans[p].layer]--
					width--
				}
				openKids[p]++
			}
			frontier[sp.layer]++
			width++
			continue
		}
		frontier[sp.layer]--
		width--
		if p := sp.parent; p >= 0 && spans[p].end > spans[p].start {
			openKids[p]--
			if openKids[p] == 0 {
				frontier[spans[p].layer]++
				width++
			}
		}
	}
	return out
}

// writeSpans writes every rank's spans as JSON lines.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	var line []byte
	for rank, rec := range recs {
		for id, sp := range rec.spans {
			line = append(line[:0], `{"name":"`...)
			line = append(line, layerNames[sp.layer]...)
			line = append(line, '.')
			line = append(line, opNames[sp.op]...)
			line = append(line, `","rank":`...)
			line = strconv.AppendInt(line, int64(rank), 10)
			line = append(line, `,"epoch":`...)
			line = strconv.AppendInt(line, int64(sp.epoch), 10)
			line = append(line, `,"phase":"`...)
			line = append(line, phaseNames[sp.phase]...)
			line = append(line, `","id":`...)
			line = strconv.AppendInt(line, int64(id), 10)
			line = append(line, `,"child":`...)
			line = strconv.AppendInt(line, int64(sp.child), 10)
			line = append(line, `,"parent":`...)
			line = strconv.AppendInt(line, int64(sp.parent), 10)
			line = append(line, `,"start_ns":`...)
			line = strconv.AppendInt(line, sp.start, 10)
			line = append(line, `,"end_ns":`...)
			line = strconv.AppendInt(line, sp.end, 10)
			line = append(line, "}\n"...)
			if _, err := w.Write(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing %s: %w", path, err)
	}
	return nil
}
