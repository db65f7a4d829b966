package nvmeof

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// ErrPoolClosed reports a command issued after HostPool.Close.
var ErrPoolClosed = errors.New("nvmeof: pool closed")

// ErrNoQueuePairs reports that every queue pair in the pool is down and
// awaiting reconnection.
var ErrNoQueuePairs = errors.New("nvmeof: all queue pairs down")

// maxReconnectBackoff caps the exponential reconnect backoff.
const maxReconnectBackoff = time.Second

// PoolConfig tunes a HostPool. The zero value gets sensible defaults.
type PoolConfig struct {
	// QueuePairs is the number of connections opened to the target
	// (default 4). More queue pairs remove head-of-line blocking: one
	// slow READ no longer stalls every other command.
	QueuePairs int
	// CommandTimeout bounds each command round trip on every queue
	// pair (default 0 = no deadline).
	CommandTimeout time.Duration
	// Dial opens each queue pair's transport connection (default
	// net.Dial over TCP); reconnects use it too. Fault-injection tests
	// pass FaultDialer here to interpose on the byte stream without
	// touching the capsule protocol.
	Dial func(addr string) (net.Conn, error)
	// MaxRetries is how many extra attempts idempotent commands
	// (READ, IDENTIFY) get after a transport failure or timeout, and a
	// WRITE gets after a refusal that sent nothing: every queue pair
	// down (ErrNoQueuePairs) or a full slot ring (ErrQueueFull)
	// (default 2). A WRITE that reached a queue pair never retries.
	MaxRetries int
	// RetryBackoff is the initial delay between retries; it doubles
	// per attempt (default 2ms).
	RetryBackoff time.Duration
	// ReconnectBackoff is the initial delay between reconnect
	// attempts for a failed queue pair; it doubles per attempt up to
	// one second (default 10ms).
	ReconnectBackoff time.Duration
	// Tracer, when non-nil, makes every queue pair stamp every command,
	// CONNECT included, with a trace ID and emit one correlated
	// "nvmeof.cmd" span per completion carrying the target-reported
	// wire/queue/service phase breakdown. Nil adds zero bytes to any
	// capsule.
	Tracer *telemetry.Tracer
	// Batch configures each queue pair's submission batcher (see
	// BatchConfig). The zero value keeps the direct path.
	Batch BatchConfig
}

func (c PoolConfig) withDefaults() PoolConfig {
	if c.QueuePairs <= 0 {
		c.QueuePairs = 4
	}
	if c.Dial == nil {
		c.Dial = func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	} else if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 2 * time.Millisecond
	}
	if c.ReconnectBackoff <= 0 {
		c.ReconnectBackoff = 10 * time.Millisecond
	}
	return c
}

// qpSlot is one pool position. The Host occupying it is replaced on
// reconnect; a nil host means the slot is down. Commands, errors, and
// latency are recorded by the Host itself inside roundTrip; the slot's
// instruments share those series (same registry, same qp label) and
// additionally count pool-level events: retries, reconnects, off-home.
type qpSlot struct {
	id  int
	tel qpTelemetry

	mu           sync.Mutex
	host         *Host
	reconnecting bool
}

// HostPool is an NVMe-oF initiator that shards commands across several
// queue pairs to one target namespace — the paper's many-independent-
// queue-pairs scaling model (§III, Fig. 4). Selection is by address,
// then size (see home, acquire): a command goes to the queue pair that
// owns its offset unless that pair is busy (bulk) or full (small). Failed
// queue pairs are re-dialed in the background with exponential backoff
// instead of poisoning the pool, and idempotent commands transparently
// retry on a sibling queue pair. Safe for concurrent use.
type HostPool struct {
	addr string
	nsid uint32
	cfg  PoolConfig

	slots  []*qpSlot
	fill   int    // batching pools: fill a queue pair to this depth before spilling
	part   uint64 // bytes of namespace per queue pair (see home); 0 for an empty namespace
	nsSize int64
	reg    *telemetry.Registry
	flight *FlightRecorder

	closed    chan struct{}
	closeOnce sync.Once
	closeMu   sync.Mutex // orders reconnector spawns against Close
	isClosed  bool
	wg        sync.WaitGroup // background reconnectors
}

// DialPool opens cfg.QueuePairs connections to the target namespace.
// Every queue pair must connect for DialPool to succeed; after that,
// individual failures are repaired in the background.
func DialPool(addr string, nsid uint32, cfg PoolConfig) (*HostPool, error) {
	cfg = cfg.withDefaults()
	reg := telemetry.New()
	p := &HostPool{
		addr:   addr,
		nsid:   nsid,
		cfg:    cfg,
		closed: make(chan struct{}),
		reg:    reg,
		flight: NewFlightRecorder(DefaultFlightDepth),
	}
	if cfg.Batch.Enabled {
		p.fill = batchMaxCommands
	}
	for i := 0; i < cfg.QueuePairs; i++ {
		h, err := p.dialSlot(i)
		if err != nil {
			for _, s := range p.slots {
				s.host.Close()
			}
			return nil, fmt.Errorf("nvmeof: pool: queue pair %d: %w", i, err)
		}
		p.slots = append(p.slots, &qpSlot{id: i, tel: newQPTelemetry(reg, i), host: h})
	}
	p.nsSize = p.slots[0].host.NamespaceSize()
	p.part = (uint64(p.nsSize) + uint64(cfg.QueuePairs) - 1) / uint64(cfg.QueuePairs)
	reg.Gauge(MetricPoolQueuePairs, nil).Set(int64(cfg.QueuePairs))
	return p, nil
}

// dialSlot opens the queue pair for slot i: connect, start the read
// loop, CONNECT for the pool's namespace. The pair records into the
// pool's registry under the slot's qp label and into the slot's flight
// ring, so a replacement dialed after an outage lands on the same series.
func (p *HostPool) dialSlot(i int) (*Host, error) {
	conn, err := p.cfg.Dial(p.addr)
	if err != nil {
		return nil, err
	}
	h := &Host{
		conn:     conn,
		timeout:  p.cfg.CommandTimeout,
		slots:    make([]hostSlot, hostQueueDepth),
		freeRing: newIndexRing(hostQueueDepth, 0),
		tel:      newQPTelemetry(p.reg, i),
		qpID:     i,
		tracer:   p.cfg.Tracer,
		flight:   p.flight,
	}
	for k := range h.slots {
		s := &h.slots[k]
		s.idx = uint16(k)
		s.followers = s.followersInline[:0]
		h.freeRing.push(s.idx)
	}
	if p.cfg.Batch.Enabled {
		h.batch = &batcher{cfg: p.cfg.Batch}
	}
	go h.readLoop()
	resp, err := h.submitPayload(&Command{Opcode: OpConnect, NSID: p.nsid}, nil, 0)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("nvmeof: connect: %w", err)
	}
	if resp.Status != StatusOK {
		conn.Close()
		return nil, fmt.Errorf("nvmeof: connect: %s", statusText(resp.Status))
	}
	h.nsSize = int64(resp.Value)
	return h, nil
}

// NamespaceSize returns the connected namespace's capacity.
func (p *HostPool) NamespaceSize() int64 { return p.nsSize }

// QueuePairs returns the pool width.
func (p *HostPool) QueuePairs() int { return len(p.slots) }

// Telemetry returns the registry the pool's queue pairs record into,
// for exposition (e.g. the nvmecrd admin listener's /metrics).
func (p *HostPool) Telemetry() *telemetry.Registry { return p.reg }

// Snapshot reports every queue pair's live counters and latency
// quantiles in the unified snapshot form, ordered by slot ID.
func (p *HostPool) Snapshot() []telemetry.HostQPSnapshot {
	out := make([]telemetry.HostQPSnapshot, 0, len(p.slots))
	for _, s := range p.slots {
		s.mu.Lock()
		h := s.host
		s.mu.Unlock()
		healthy, inflight := false, 0
		if h != nil && h.Healthy() {
			healthy = true
			inflight = h.InFlight()
		}
		out = append(out, s.tel.snapshot(s.id, healthy, inflight))
	}
	return out
}

// Flight returns the pool's shared flight recorder: every slot's last
// completed commands, one lock-striped ring per queue pair.
func (p *HostPool) Flight() *FlightRecorder { return p.flight }

// transferBytes is the payload a command moves across its connection:
// a READ's requested length, otherwise the bytes it carries (vecLen
// counts a gather list riding outside cmd.Data).
func transferBytes(cmd *Command, vecLen int) int {
	if cmd.Opcode == OpReadCmd {
		return int(cmd.Length)
	}
	return len(cmd.Data) + vecLen
}

// home is the queue pair that owns a namespace offset: one equal range
// per pair, so equal partitions (one per rank, what NewTCPPlane callers
// build) map to a pair each and a rank keeps its connection, its target
// goroutines and its read loop to itself — the paper's one queue per
// microfs instance. A partition across a boundary uses both pairs.
func (p *HostPool) home(off uint64) int {
	if p.part == 0 {
		return 0
	}
	return int(min(off/p.part, uint64(len(p.slots)-1)))
}

// acquire picks the queue pair for a command that moves n payload
// bytes: one scan from slot start (the command's home, or past the pair
// that just failed it) that takes the first healthy queue pair shallower
// than a spill depth, otherwise the shallowest. Dead queue
// pairs encountered on the way are handed to the reconnector.
//
// The spill depth is the rest of the policy. A transfer of sockBufSize or
// more bypasses the bufio staging on both ends and owns its connection,
// its target reader and its serve loop for as long as it lasts, so it
// spills past anything in flight: two bulk transfers never share a queue
// pair while another is idle. Smaller commands on a batching pool fill a
// pair to the batch command budget first: a burst from one region meets
// in one batcher and coalesces into one vectored write, where balancing
// by depth would cut N shallow batches across N batchers. Without a
// batcher every command spills past a busy pair.
func (p *HostPool) acquire(n, start int) (*qpSlot, *Host, error) {
	select {
	case <-p.closed:
		return nil, nil, ErrPoolClosed
	default:
	}
	spill := p.fill
	if p.fill == 0 || n >= sockBufSize {
		spill = 1
	}
	var best *qpSlot
	var bestHost *Host
	bestDepth := 0
	for i := range p.slots {
		s := p.slots[(start+i)%len(p.slots)]
		s.mu.Lock()
		h := s.host
		s.mu.Unlock()
		if h == nil || !h.Healthy() {
			p.noteFailure(s, h)
			continue
		}
		d := h.InFlight()
		if d < spill {
			return s, h, nil
		}
		if best == nil || d < bestDepth {
			best, bestHost, bestDepth = s, h, d
		}
	}
	if best == nil {
		return nil, nil, ErrNoQueuePairs
	}
	return best, bestHost, nil
}

// noteFailure marks a slot's host dead (if it still occupies the slot)
// and starts the background reconnector once per outage.
func (p *HostPool) noteFailure(s *qpSlot, h *Host) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if h != nil && s.host == h {
		s.host = nil
		h.Close()
	}
	if s.host == nil && !s.reconnecting && p.startReconnector(s) {
		s.reconnecting = true
	}
}

// startReconnector spawns the background re-dial goroutine unless the
// pool is closing (spawning after Close's wg.Wait would race).
func (p *HostPool) startReconnector(s *qpSlot) bool {
	p.closeMu.Lock()
	defer p.closeMu.Unlock()
	if p.isClosed {
		return false
	}
	p.wg.Add(1)
	go p.reconnect(s)
	return true
}

// reconnect re-CONNECTs a failed queue pair and re-registers it in its
// slot, backing off exponentially until it succeeds or the pool closes.
func (p *HostPool) reconnect(s *qpSlot) {
	defer p.wg.Done()
	backoff := p.cfg.ReconnectBackoff
	for {
		select {
		case <-p.closed:
			s.mu.Lock()
			s.reconnecting = false
			s.mu.Unlock()
			return
		default:
		}
		h, err := p.dialSlot(s.id)
		if err == nil {
			s.mu.Lock()
			select {
			case <-p.closed:
				s.reconnecting = false
				s.mu.Unlock()
				h.Close()
				return
			default:
			}
			s.host = h
			s.reconnecting = false
			s.tel.reconnects.Inc()
			s.mu.Unlock()
			return
		}
		timer := time.NewTimer(backoff)
		select {
		case <-p.closed:
			timer.Stop()
			s.mu.Lock()
			s.reconnecting = false
			s.mu.Unlock()
			return
		case <-timer.C:
		}
		if backoff *= 2; backoff > maxReconnectBackoff {
			backoff = maxReconnectBackoff
		}
	}
}

// do runs one command on a selected queue pair; idempotent commands are
// retried with backoff on transport failures and timeouts, and every
// command on a refusal that sent nothing (ErrNoQueuePairs at placement,
// ErrQueueFull at the slot ring). A completion with a non-OK status is a
// definitive answer, not a transport failure, and is returned without
// retrying.
func (p *HostPool) do(cmd *Command, idempotent bool) (Response, error) {
	return p.doPayload(cmd, nil, 0, idempotent)
}

// doPayload is do for a WRITE whose payload rides outside cmd.Data (see
// Host.submitPayload). An OK completion whose payload disagrees with the
// command is ErrBadResponse.
func (p *HostPool) doPayload(cmd *Command, vec [][]byte, vecLen int, idempotent bool) (Response, error) {
	attempts := 1 + p.cfg.MaxRetries
	backoff := p.cfg.RetryBackoff
	var lastErr error
	lastQP := -1
	home := p.home(cmd.Offset)
	start := home
	for a := 0; a < attempts; a++ {
		if a > 0 {
			timer := time.NewTimer(backoff)
			select {
			case <-p.closed:
				timer.Stop()
				return Response{}, ErrPoolClosed
			case <-timer.C:
			}
			backoff *= 2
		}
		s, h, err := p.acquire(transferBytes(cmd, vecLen), start)
		if err != nil {
			if errors.Is(err, ErrPoolClosed) {
				return Response{}, err
			}
			lastErr = err
			continue
		}
		if a > 0 {
			s.tel.retries.Inc()
		}
		if s.id != home {
			s.tel.offHome.Inc()
		}
		// submitPayload records commands, errors, bytes, latency, and
		// the slot's flight ring (via the pool-shared recorder).
		resp, err := h.submitPayload(cmd, vec, vecLen)
		if err == nil {
			// A malformed answer is still an answer: no retry, and the
			// queue pair stays up.
			if err := badPayload(cmd, &resp); err != nil {
				dumpFlight(p.cfg.Tracer, p.flight, s.id, "bad-response")
				return Response{}, err
			}
			return resp, nil
		}
		lastErr = err
		lastQP = s.id
		// Retry elsewhere first: this pair, still up or re-dialled, would win again.
		start = s.id + 1
		if transportFailure(err) {
			p.noteFailure(s, h)
		}
		if !idempotent && !errors.Is(err, ErrQueueFull) {
			return Response{}, err
		}
	}
	if attempts > 1 && lastQP >= 0 {
		dumpFlight(p.cfg.Tracer, p.flight, lastQP, "retry-exhausted")
	}
	return Response{}, lastErr
}

// transportFailure reports whether a submission error means the queue
// pair's connection is dead. A timeout abandons its command, not its
// connection, and a refusal (a full slot ring, an oversize capsule)
// happens before any byte is written: the queue pair stays up for both.
func transportFailure(err error) bool {
	return !errors.Is(err, ErrTimeout) && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrCapsuleTooLarge)
}

// WriteAt writes data at the namespace offset. The payload is aliased,
// not copied: it rides to the socket as its own iovec, and the caller
// must not mutate it until WriteAt returns — and after a timeout not at
// all, since the abandoned capsule may still be on its way to the
// socket. A WRITE refused before it reached a queue pair — every pair
// down (ErrNoQueuePairs) or a full slot ring (ErrQueueFull) — cannot
// have changed the namespace, and retries within MaxRetries and
// RetryBackoff. A WRITE that reached a queue pair is not retried: the
// pool cannot know whether a failed round trip mutated the namespace,
// so the error surfaces to the caller.
func (p *HostPool) WriteAt(off int64, data []byte) error {
	if err := capsuleLimit("write", int64(len(data))); err != nil {
		return err
	}
	resp, err := p.do(&Command{Opcode: OpWriteCmd, Offset: uint64(off), Data: data}, false)
	return checkResp(resp, err, "write")
}

// WriteAtV writes the concatenation of bufs at the namespace offset
// as ONE command, without copying them into a staging buffer: each buf
// rides to the socket as its own iovec, under the same aliasing contract
// as WriteAt. It retries exactly when WriteAt does.
func (p *HostPool) WriteAtV(off int64, bufs [][]byte) error {
	total := vecBytes(bufs)
	if total == 0 {
		return nil
	}
	if err := capsuleLimit("write", int64(total)); err != nil {
		return err
	}
	resp, err := p.doPayload(&Command{Opcode: OpWriteCmd, Offset: uint64(off)}, bufs, total, false)
	return checkResp(resp, err, "write")
}

// ReadAt reads length bytes from the namespace offset, retrying on
// transient transport failures.
func (p *HostPool) ReadAt(off, length int64) ([]byte, error) {
	if err := validateReadLength(length); err != nil {
		return nil, err
	}
	resp, err := p.do(&Command{Opcode: OpReadCmd, Offset: uint64(off), Length: uint32(length)}, true)
	if err := checkResp(resp, err, "read"); err != nil {
		return nil, err
	}
	if resp.Data == nil {
		return []byte{}, nil
	}
	return resp.Data, nil
}

// Flush issues a durability barrier on every healthy queue pair, so
// writes sharded across the pool are all covered. The barriers go out
// together — an Fsync costs one round trip, not one per queue pair —
// and the lowest-numbered queue pair's error wins.
func (p *HostPool) Flush() error {
	select {
	case <-p.closed:
		return ErrPoolClosed
	default:
	}
	errs := make([]error, len(p.slots))
	flushOn := func(s *qpSlot, h *Host) {
		resp, err := h.submitPayload(&Command{Opcode: OpFlushCmd}, nil, 0)
		if err != nil && transportFailure(err) {
			p.noteFailure(s, h)
		}
		errs[s.id] = checkResp(resp, err, "flush")
	}
	// Every healthy queue pair but the last gets a goroutine; the last
	// is flushed from here, so a pool of one spawns nothing.
	var wg sync.WaitGroup
	var last *qpSlot
	var lastHost *Host
	for _, s := range p.slots {
		s.mu.Lock()
		h := s.host
		s.mu.Unlock()
		if h == nil || !h.Healthy() {
			p.noteFailure(s, h)
			continue
		}
		if last != nil {
			wg.Add(1)
			go func(s *qpSlot, h *Host) {
				defer wg.Done()
				flushOn(s, h)
			}(last, lastHost)
		}
		last, lastHost = s, h
	}
	if last == nil {
		return fmt.Errorf("nvmeof: flush: %w", ErrNoQueuePairs)
	}
	flushOn(last, lastHost)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Identify re-reads the namespace properties (idempotent; retried).
func (p *HostPool) Identify() (int64, error) {
	resp, err := p.do(&Command{Opcode: OpIdentify}, true)
	if err := checkResp(resp, err, "identify"); err != nil {
		return 0, err
	}
	return int64(resp.Value), nil
}

// Close tears down every queue pair and stops all reconnectors.
func (p *HostPool) Close() error {
	p.closeMu.Lock()
	p.isClosed = true
	p.closeOnce.Do(func() { close(p.closed) })
	p.closeMu.Unlock()
	p.wg.Wait()
	var firstErr error
	for _, s := range p.slots {
		s.mu.Lock()
		if s.host != nil {
			if err := s.host.Close(); err != nil && firstErr == nil {
				firstErr = err
			}
			s.host = nil
		}
		s.mu.Unlock()
	}
	return firstErr
}
