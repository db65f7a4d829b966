// Package nvme models an NVMe SSD of the class used in the paper's
// storage nodes (Intel P4800X Optane): multiple hardware submission
// queues, flash channels, a capacitor-backed device RAM write buffer, and
// NVMe namespaces for isolation.
//
// The model runs on the deterministic simulation engine. Service times
// follow the calibrated constants in internal/model: a request of size S
// issued in command units U costs
//
//	ceil(S/U) * PerCmdDevice            (serialized controller work)
//	+ S / bw                            (media transfer; device RAM
//	                                     absorbs bursts at RAMBW)
//	+ ceil(S/U) * waitPenalty(U)        (arbitration penalty for
//	                                     commands wider than a channel
//	                                     stripe; see model.SSD)
//
// all serialized through the device so aggregate bandwidth is respected
// regardless of client count. Payload bytes are really stored (when
// capture is enabled) so durability and recovery tests verify content,
// not just timing.
package nvme

import (
	"fmt"
	"time"

	"github.com/nvme-cr/nvmecr/internal/extent"
	"github.com/nvme-cr/nvmecr/internal/faults"
	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/sim"
	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// Op is the NVMe command type.
type Op int

const (
	// OpWrite transfers data to the device.
	OpWrite Op = iota
	// OpRead transfers data from the device.
	OpRead
	// OpFlush is a durability barrier. With capacitor-backed device
	// RAM it completes in constant time.
	OpFlush
	// OpTrim deallocates a range.
	OpTrim
)

func (o Op) String() string {
	switch o {
	case OpWrite:
		return "write"
	case OpRead:
		return "read"
	case OpFlush:
		return "flush"
	case OpTrim:
		return "trim"
	default:
		return fmt.Sprintf("Op(%d)", int(o))
	}
}

// Request is one IO submission. Offset/Length are namespace-relative.
// Data may be nil for modeled (synthetic) transfers; when non-nil its
// length must equal Length and, if the device captures data, the bytes
// are stored for later read-back.
type Request struct {
	Op     Op
	Offset int64
	Length int64
	Data   []byte
	// CmdUnit is the command granularity (the runtime submits in
	// hugeblock units). Zero means a single command for the whole
	// request.
	CmdUnit int64
}

// Device is one simulated SSD.
type Device struct {
	Name string

	env    *sim.Env
	params model.SSD

	// ctrl serializes media access; it is the bandwidth pipe.
	ctrl *sim.Resource

	store   *extent.Store
	capture bool

	capacity int64
	nsNext   int
	nsUsed   int64 // namespaces are carved back to back from 0

	// Device RAM write-buffer state (token bucket): occupancy drains
	// at media write bandwidth.
	bufOcc  float64
	bufAsOf time.Duration
	// volatile tracks extents whose drain to flash completes at a
	// future virtual time; on power failure without capacitors those
	// are lost.
	volatile []volExtent

	queuesIssued int
	failed       bool

	// faults, when non-nil, is consulted once per submitted command
	// (layer "nvme", op = command name).
	faults *faults.Plan

	// Stats.
	bytesWritten int64
	bytesRead    int64
	cmds         int64
	busy         time.Duration

	// Live telemetry (nil instruments until Instrument is called).
	tel devTelemetry
}

// devTelemetry is a device's live instrument set. The zero value is a
// valid no-op set, so Submit never branches on telemetry being wired.
type devTelemetry struct {
	inflight *telemetry.Gauge   // requests submitted and not yet completed
	commands *telemetry.Counter // NVMe commands issued
	written  *telemetry.Counter // payload bytes written
	read     *telemetry.Counter // payload bytes read
}

// Instrument binds the device's gauges and counters into reg, labeled
// by device name. The queue-depth gauge counts requests between
// submission and completion — including time queued on the controller —
// which is the per-device load signal the balancer's round-robin
// placement is meant to flatten.
func (d *Device) Instrument(reg *telemetry.Registry) {
	l := telemetry.Labels{"device": d.Name}
	d.tel = devTelemetry{
		inflight: reg.Gauge("nvmecr_device_inflight", l),
		commands: reg.Counter("nvmecr_device_commands_total", l),
		written:  reg.Counter("nvmecr_device_bytes_written_total", l),
		read:     reg.Counter("nvmecr_device_bytes_read_total", l),
	}
}

type volExtent struct {
	drainAt time.Duration
	off     int64 // device-absolute offset
	length  int64
}

// New creates a device bound to the simulation environment. If capture
// is true, payload bytes are stored and can be read back.
func New(env *sim.Env, name string, p model.SSD, capture bool) *Device {
	return &Device{
		Name:     name,
		env:      env,
		params:   p,
		ctrl:     env.NewResource(1),
		store:    extent.New(),
		capture:  capture,
		capacity: p.CapacityGB * model.GB,
	}
}

// Params returns the device's model parameters.
func (d *Device) Params() model.SSD { return d.params }

// Capacity returns the device capacity in bytes.
func (d *Device) Capacity() int64 { return d.capacity }

// Namespace is an isolated region of the device, the unit at which a
// job is granted storage (the paper's §III-F security model).
type Namespace struct {
	ID   int
	dev  *Device
	base int64
	size int64
}

// Size returns the namespace size in bytes.
func (ns *Namespace) Size() int64 { return ns.size }

// Device returns the owning device.
func (ns *Namespace) Device() *Device { return ns.dev }

// CreateNamespace carves a new namespace of the given size from unused
// device space.
func (d *Device) CreateNamespace(size int64) (*Namespace, error) {
	if size <= 0 {
		return nil, fmt.Errorf("nvme %s: namespace size %d", d.Name, size)
	}
	if d.nsUsed+size > d.capacity {
		return nil, fmt.Errorf("nvme %s: no space for %d-byte namespace (%d free of %d)",
			d.Name, size, d.capacity-d.nsUsed, d.capacity)
	}
	ns := &Namespace{ID: d.nsNext, dev: d, base: d.nsUsed, size: size}
	d.nsNext++
	d.nsUsed += size
	return ns, nil
}

// Queue is a hardware submission/completion queue pair. Each microfs
// instance is assigned its own queue; when instances outnumber hardware
// queues (the paper's 56-112 processes per SSD versus 32 queues), queues
// are shared round-robin.
type Queue struct {
	ID     int
	Shared bool
	dev    *Device
}

// AllocQueue assigns a hardware queue. The first HWQueues callers get
// dedicated queues; later callers share.
func (d *Device) AllocQueue() *Queue {
	id := d.queuesIssued % d.params.HWQueues
	shared := d.queuesIssued >= d.params.HWQueues
	d.queuesIssued++
	return &Queue{ID: id, Shared: shared, dev: d}
}

// Submit executes one request on the namespace through the given queue,
// blocking the process for the modeled service time. It returns the data
// for reads (nil when the device does not capture payloads) and an error
// for out-of-bounds access.
func (ns *Namespace) Submit(p *sim.Proc, q *Queue, req Request) ([]byte, error) {
	d := ns.dev
	if d.failed {
		return nil, fmt.Errorf("nvme %s: device failed", d.Name)
	}
	if q == nil || q.dev != d {
		return nil, fmt.Errorf("nvme %s: queue does not belong to this device", d.Name)
	}
	if req.Offset < 0 || req.Length < 0 || req.Offset+req.Length > ns.size {
		return nil, fmt.Errorf("nvme %s/ns%d: %s [%d,+%d) outside namespace of %d bytes",
			d.Name, ns.ID, req.Op, req.Offset, req.Length, ns.size)
	}
	if req.Data != nil && int64(len(req.Data)) != req.Length {
		return nil, fmt.Errorf("nvme %s: data length %d != request length %d",
			d.Name, len(req.Data), req.Length)
	}
	abs := ns.base + req.Offset

	d.tel.inflight.Add(1)
	defer d.tel.inflight.Add(-1)
	d.ctrl.Acquire(p)
	start := p.Now()
	if inj, ok := d.faults.Eval(faults.Point{
		Layer: faults.LayerNVMe, Op: req.Op.String(), Rank: -1, Now: p.Now(),
	}); ok {
		switch inj.Kind {
		case faults.KindMediaError:
			d.ctrl.Release()
			return nil, fmt.Errorf("nvme %s/ns%d: %s at [%d,+%d): %w",
				d.Name, ns.ID, req.Op, req.Offset, req.Length, &faults.Error{Inj: inj})
		case faults.KindStall:
			// A stalled flash channel: extra service time before the
			// command even starts, holding the controller like real
			// head-of-line blocking would.
			p.Sleep(time.Duration(inj.Arg))
		case faults.KindPowerLoss:
			// Power cut as the command arrives: device RAM contents
			// still draining to flash are lost unless the capacitors
			// hold (Arg != 0). The command itself then proceeds on the
			// restored device.
			d.PowerFail(inj.Arg != 0)
		}
	}
	svc := d.serviceTime(req, abs)
	p.Sleep(svc)
	var out []byte
	switch req.Op {
	case OpWrite:
		d.bytesWritten += req.Length
		d.tel.written.Add(uint64(req.Length))
		if d.capture && req.Data != nil {
			if err := d.store.Write(abs, req.Data); err != nil {
				d.ctrl.Release()
				return nil, err
			}
		}
	case OpRead:
		d.bytesRead += req.Length
		d.tel.read.Add(uint64(req.Length))
		if d.capture {
			out, _ = d.store.Read(abs, req.Length)
		}
	case OpTrim:
		if d.capture {
			d.store.Trim(abs, req.Length)
		}
	case OpFlush:
		// Durability barrier: device RAM is capacitor-backed, so a
		// flush only costs one command round trip (already charged).
	}
	d.cmds += model.CmdsFor(req.Length, req.CmdUnit)
	d.tel.commands.Add(uint64(model.CmdsFor(req.Length, req.CmdUnit)))
	d.busy += p.Now() - start
	d.ctrl.Release()
	return out, nil
}

// serviceTime computes the controller+media time for a request. Must be
// called with the controller held (it mutates buffer state).
func (d *Device) serviceTime(req Request, abs int64) time.Duration {
	p := d.params
	cmds := model.CmdsFor(req.Length, req.CmdUnit)
	if cmds == 0 {
		cmds = 1 // flush and zero-length ops still cost one command
	}
	overhead := time.Duration(cmds) * p.PerCmdDevice
	unit := req.CmdUnit
	if unit <= 0 {
		unit = req.Length
	}
	if over := unit - p.StripeWidth(); over > 0 && req.Op == OpWrite {
		perCmd := time.Duration(p.CmdWaitCoeff * float64(over) / p.WriteBW * float64(time.Second))
		overhead += time.Duration(cmds) * perCmd
	}
	var media time.Duration
	switch req.Op {
	case OpWrite:
		media = d.absorbWrite(req.Length)
		d.trackVolatile(abs, req.Length)
	case OpRead:
		media = model.DurFor(req.Length, p.ReadBW)
	case OpFlush, OpTrim:
		media = 0
	}
	return overhead + media
}

// absorbWrite models the device RAM burst buffer as a token bucket that
// drains at media write bandwidth: writes that fit in free buffer space
// complete at RAM bandwidth, others at media bandwidth.
func (d *Device) absorbWrite(length int64) time.Duration {
	p := d.params
	now := d.env.Now()
	elapsed := (now - d.bufAsOf).Seconds()
	d.bufOcc -= elapsed * p.WriteBW
	if d.bufOcc < 0 {
		d.bufOcc = 0
	}
	d.bufAsOf = now
	if p.RAMBytes > 0 && d.bufOcc+float64(length) <= float64(p.RAMBytes) {
		d.bufOcc += float64(length)
		return model.DurFor(length, p.RAMBW)
	}
	// Buffer full: media-rate service; occupancy pinned at capacity.
	d.bufOcc = float64(p.RAMBytes)
	return model.DurFor(length, p.WriteBW)
}

// trackVolatile records when this write's bytes finish draining from
// device RAM to flash, for power-failure modeling.
func (d *Device) trackVolatile(abs, length int64) {
	drainAt := d.env.Now() + model.DurFor(int64(d.bufOcc), d.params.WriteBW)
	d.volatile = append(d.volatile, volExtent{
		drainAt: drainAt,
		off:     abs,
		length:  length,
	})
	// Garbage-collect drained entries.
	now := d.env.Now()
	keep := d.volatile[:0]
	for _, v := range d.volatile {
		if v.drainAt > now {
			keep = append(keep, v)
		}
	}
	d.volatile = keep
}

// PowerFail simulates a power loss at the current virtual time. With
// capacitorsOK (the paper's enhanced power-loss data protection), device
// RAM is flushed and nothing is lost; otherwise extents still in RAM are
// dropped. It returns the number of bytes lost.
func (d *Device) PowerFail(capacitorsOK bool) int64 {
	if capacitorsOK {
		d.volatile = nil
		d.bufOcc = 0
		return 0
	}
	now := d.env.Now()
	var lost int64
	for _, v := range d.volatile {
		if v.drainAt > now {
			lost += v.length
			if d.capture {
				d.store.Trim(v.off, v.length)
			}
		}
	}
	d.volatile = nil
	d.bufOcc = 0
	return lost
}

// InjectFaults attaches a fault plan: every submitted command first
// consults it (layer "nvme", op "write"/"read"/"flush"/"trim") and may
// draw a media error, a channel stall, or a power loss. Nil detaches.
func (d *Device) InjectFaults(plan *faults.Plan) { d.faults = plan }

// Fail marks the device as failed (a storage-node crash in a cascading
// failure): every subsequent submission errors.
func (d *Device) Fail() { d.failed = true }

// Stats reports totals since creation.
func (d *Device) Stats() (written, read, cmds int64, busy time.Duration) {
	return d.bytesWritten, d.bytesRead, d.cmds, d.busy
}

// StoredBytes returns the payload bytes currently captured.
func (d *Device) StoredBytes() int64 { return d.store.Bytes() }

// ResetStats clears the counters (used between experiment phases).
func (d *Device) ResetStats() {
	d.bytesWritten, d.bytesRead, d.cmds, d.busy = 0, 0, 0, 0
}
