package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// The machine this benchmark runs on, a few cores of a shared host, does
// not hold one speed: for minutes at a time its core clock is a tenth
// slower and a loopback round trip 40 % longer, with no steal time to
// show for it, and every CPU-bound timing moves with them (NOISE.md). A
// run cannot wait that out, so it measures the machine beside the
// program: a reference loop that uses none of the program's code runs
// before and after every phase, and a phase's wall time is reported at
// the speed the reference loop has on the reference machine in its usual
// state.
//
// The reference loop is the transport pattern the stack is built on, and
// the part of the machine that drifts: as many closed-loop clients as
// there are ranks, each sending requests over its own loopback TCP
// connection to an echo goroutine and waiting for every one-byte reply.
// The requests have the sizes the workloads put on the wire: a bare
// command, a log page, ckpt_small's write, a stripe unit. It exercises
// system calls, the TCP stack, copies, netpoll wake-ups and scheduling
// across CPUs, and no timer.
var refMix = []struct{ payload, rounds int }{
	{0, 300},
	{4 << 10, 150},
	{16 << 10, 100},
	{128 << 10, 20},
}

const (
	refHeader     = 4 // a request is its payload's length, then the payload
	refMaxPayload = 128 << 10
	// refNominal is what one measurement takes on the reference machine
	// (2 vCPU Firecracker guest, go1.24) in its usual, faster state; a
	// phase timed while the loop takes this long is reported as timed.
	refNominal = 12 * time.Millisecond
)

// refLoop is the reference loop's connections and echo goroutines.
type refLoop struct {
	ln      net.Listener
	clients []net.Conn
	payload []byte // zeroes, read by every client
	servers sync.WaitGroup
}

func newRefLoop(clients int) (_ *refLoop, err error) {
	r := &refLoop{payload: make([]byte, refMaxPayload)}
	if r.ln, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	for i := 0; i < clients; i++ {
		c, err := net.Dial("tcp", r.ln.Addr().String())
		if err != nil {
			return nil, err
		}
		r.clients = append(r.clients, c)
		s, err := r.ln.Accept()
		if err != nil {
			return nil, err
		}
		r.servers.Add(1)
		go func() {
			defer r.servers.Done()
			defer s.Close()
			echo(s)
		}()
	}
	return r, nil
}

// echo answers every request with one byte until the client hangs up.
func echo(s net.Conn) {
	buf := make([]byte, refHeader+refMaxPayload)
	for {
		if _, err := io.ReadFull(s, buf[:refHeader]); err != nil {
			return
		}
		n := binary.LittleEndian.Uint32(buf)
		if n > refMaxPayload {
			return
		}
		if _, err := io.ReadFull(s, buf[refHeader:refHeader+n]); err != nil {
			return
		}
		if _, err := s.Write(buf[:1]); err != nil {
			return
		}
	}
}

// close hangs up every client and waits for the echo goroutines.
func (r *refLoop) close() {
	for _, c := range r.clients {
		c.Close()
	}
	r.ln.Close()
	r.servers.Wait()
}

// measure runs the request mix on every client at once and returns the
// wall time until the last client is done.
func (r *refLoop) measure() (time.Duration, error) {
	errs := make([]error, len(r.clients))
	var wg sync.WaitGroup
	start := time.Now()
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c net.Conn) {
			defer wg.Done()
			errs[i] = r.client(c)
		}(i, c)
	}
	wg.Wait()
	took := time.Since(start)
	for _, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("reference loop: %w", err)
		}
	}
	return took, nil
}

func (r *refLoop) client(c net.Conn) error {
	var header, ack [refHeader]byte
	for _, m := range refMix {
		binary.LittleEndian.PutUint32(header[:], uint32(m.payload))
		for n := 0; n < m.rounds; n++ {
			if _, err := c.Write(header[:]); err != nil {
				return err
			}
			if m.payload > 0 {
				if _, err := c.Write(r.payload[:m.payload]); err != nil {
					return err
				}
			}
			if _, err := io.ReadFull(c, ack[:1]); err != nil {
				return err
			}
		}
	}
	return nil
}
