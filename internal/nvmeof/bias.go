package nvmeof

import (
	"errors"
	"fmt"
)

// QPBias steers HostPool placement away from a queue pair without
// removing it from service. External judgment (the health engine's
// verdicts) sets it; the pool itself never changes a bias.
type QPBias int32

const (
	// BiasNone is the default: the queue pair competes normally.
	BiasNone QPBias = iota
	// BiasSoft handicaps the queue pair in depth comparisons so new
	// commands prefer its siblings, but it still takes traffic when the
	// others are loaded — the right setting for a degraded-but-working
	// pair that should drain gently.
	BiasSoft
	// BiasAvoid makes the queue pair a last resort: it is selected only
	// when no unavoided pair is usable, so a suspect or dying pair sees
	// almost no traffic while staying dialed for probes and recovery.
	BiasAvoid
)

// String names the bias for logs and JSON.
func (b QPBias) String() string {
	switch b {
	case BiasNone:
		return "none"
	case BiasSoft:
		return "soft"
	case BiasAvoid:
		return "avoid"
	default:
		return fmt.Sprintf("bias(%d)", int32(b))
	}
}

// softBiasHandicap is the depth penalty a BiasSoft queue pair carries
// in placement comparisons: it wins only against siblings that are this
// many commands deeper.
const softBiasHandicap = 16

// ErrBadQueuePair reports a queue-pair index outside the pool.
var ErrBadQueuePair = errors.New("nvmeof: no such queue pair")

// SetQPBias sets the placement bias for one queue pair. Out-of-range
// indexes are ignored (the health engine may outlive a resize).
func (p *HostPool) SetQPBias(qp int, b QPBias) {
	if qp < 0 || qp >= len(p.slots) {
		return
	}
	p.slots[qp].bias.Store(int32(b))
}

// QPBias returns the current placement bias of one queue pair.
func (p *HostPool) QPBias(qp int) QPBias {
	if qp < 0 || qp >= len(p.slots) {
		return BiasNone
	}
	return QPBias(p.slots[qp].bias.Load())
}

// QPHealthy reports whether the queue pair currently holds a live,
// non-failed transport connection.
func (p *HostPool) QPHealthy(qp int) bool {
	if qp < 0 || qp >= len(p.slots) {
		return false
	}
	s := p.slots[qp]
	s.mu.Lock()
	h := s.host
	s.mu.Unlock()
	return h != nil && h.Healthy()
}

// ProbeQP issues an IDENTIFY on exactly this queue pair — the health
// engine's active probe, confirming or refuting a suspect verdict
// without touching the pool's placement. A down slot fails immediately.
func (p *HostPool) ProbeQP(qp int) error {
	if qp < 0 || qp >= len(p.slots) {
		return ErrBadQueuePair
	}
	s := p.slots[qp]
	s.mu.Lock()
	h := s.host
	s.mu.Unlock()
	if h == nil || !h.Healthy() {
		return fmt.Errorf("nvmeof: probe qp %d: %w", qp, ErrNoQueuePairs)
	}
	resp, err := h.submitPayload(&Command{Opcode: OpIdentify}, nil, 0, nil)
	return checkResp(resp, err, "identify")
}
