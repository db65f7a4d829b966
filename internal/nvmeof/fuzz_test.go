package nvmeof

import (
	"bytes"
	"encoding/binary"
	"io"
	"testing"
)

// FuzzReadCommand hardens the target's capsule parser: arbitrary bytes
// from the network must never panic or over-allocate.
func FuzzReadCommand(f *testing.F) {
	var buf bytes.Buffer
	WriteCommand(&buf, &Command{Opcode: OpWriteCmd, CID: 7, NSID: 1, Offset: 4096, Data: []byte("payload")})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, wire []byte) {
		if cmd, err := ReadCommand(bytes.NewReader(wire)); err == nil {
			roundTripCommand(t, cmd)
		}
	})
}

// FuzzReadCommandVersioned hardens the trace-ID extension, which the
// retired capsule version 1 introduced: a traced capsule must
// round-trip, and must encode as its untraced form plus only the flag
// bit in header byte 5 and the 8 bytes after the fixed header, so an
// untraced capsule stays byte-identical to one from before tracing.
func FuzzReadCommandVersioned(f *testing.F) {
	// Traced WRITE with the 8-byte trace-ID extension.
	var traced bytes.Buffer
	WriteCommand(&traced, &Command{
		Opcode: OpWriteCmd, CID: 7, NSID: 1, Offset: 4096,
		Traced: true, TraceID: 0xDEADBEEFCAFE, Data: []byte("payload"),
	})
	f.Add(traced.Bytes())
	// Untraced READ (extension absent).
	var plain bytes.Buffer
	WriteCommand(&plain, &Command{Opcode: OpReadCmd, CID: 9, Length: 64})
	f.Add(plain.Bytes())
	// Truncated extension: header promises a trace ID, stream ends.
	f.Add(traced.Bytes()[:cmdHdrLen+3])
	// CONNECT with non-zero reserved bytes 28-29.
	var connect bytes.Buffer
	WriteCommand(&connect, &Command{Opcode: OpConnect, NSID: 1})
	connect.Bytes()[28] = 1
	f.Add(connect.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))

	f.Fuzz(func(t *testing.T, wire []byte) {
		cmd, err := ReadCommand(bytes.NewReader(wire))
		if err != nil || !cmd.Traced {
			return
		}
		encoded := roundTripCommand(t, cmd)
		untraced := *cmd
		untraced.Traced, untraced.TraceID = false, 0
		var u bytes.Buffer
		if err := WriteCommand(&u, &untraced); err != nil {
			t.Fatalf("encode of untraced form failed: %v", err)
		}
		want := append([]byte{}, u.Bytes()[:cmdHdrLen]...)
		want[5] = cmdFlagTraced
		want = binary.LittleEndian.AppendUint64(want, cmd.TraceID)
		want = append(want, u.Bytes()[cmdHdrLen:]...)
		if !bytes.Equal(encoded, want) {
			t.Fatalf("traced capsule is not its untraced form plus the extension:\n got %x\nwant %x", encoded, want)
		}
	})
}

// roundTripCommand checks that a parsed command re-encodes and
// re-parses identically, trace-ID extension included, and returns its
// encoding.
func roundTripCommand(t *testing.T, cmd *Command) []byte {
	t.Helper()
	if int64(len(cmd.Data)) > MaxDataLen {
		t.Fatalf("parser accepted %d bytes of in-capsule data", len(cmd.Data))
	}
	var out bytes.Buffer
	if err := WriteCommand(&out, cmd); err != nil {
		t.Fatalf("re-encode of parsed command failed: %v", err)
	}
	encoded := out.Bytes()
	again, err := ReadCommand(bytes.NewReader(encoded))
	if err != nil {
		t.Fatalf("re-parse failed: %v", err)
	}
	if again.Opcode != cmd.Opcode || again.CID != cmd.CID || again.NSID != cmd.NSID ||
		again.Offset != cmd.Offset || again.Length != cmd.Length ||
		again.Traced != cmd.Traced || again.TraceID != cmd.TraceID ||
		!bytes.Equal(again.Data, cmd.Data) {
		t.Fatal("command round trip diverged")
	}
	return encoded
}

// FuzzReadResponse does the same for the host's completion parser.
func FuzzReadResponse(f *testing.F) {
	var buf bytes.Buffer
	WriteResponse(&buf, &Response{CID: 3, Status: StatusOK, Value: 1 << 30, Data: []byte("x")})
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xAB}, 40))
	// Regression seed: a READ completion whose declared data length (4
	// bytes) disagrees with the 64-byte READ that elicited it. The
	// parser must hand it through intact so the host's length check
	// (Host.ReadAt → ErrBadResponse) is what rejects it.
	var mismatched bytes.Buffer
	WriteResponse(&mismatched, &Response{CID: 9, Status: StatusOK, Data: []byte{1, 2, 3, 4}})
	f.Add(mismatched.Bytes())

	f.Fuzz(func(t *testing.T, wire []byte) {
		if resp, err := ReadResponse(bytes.NewReader(wire)); err == nil {
			roundTripResponse(t, resp)
		}
	})
}

// FuzzReadResponseVersioned does the same as FuzzReadCommandVersioned
// for completion capsules with the phase-timing extension: the flag is
// the high bit of the status, the 32 bytes follow the fixed header.
func FuzzReadResponseVersioned(f *testing.F) {
	var phased bytes.Buffer
	WriteResponse(&phased, &Response{
		CID: 3, Status: StatusOK, Value: 42,
		Phases: &PhaseTimings{WireReadNS: 100, QueueNS: 200, ServiceNS: 300, WireWriteNS: 400},
		Data:   []byte("x"),
	})
	f.Add(phased.Bytes())
	// Truncated phase extension.
	f.Add(phased.Bytes()[:rspHdrLen+7])
	var plain bytes.Buffer
	WriteResponse(&plain, &Response{CID: 5, Status: StatusInvalidOpcode})
	f.Add(plain.Bytes())
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, wire []byte) {
		resp, err := ReadResponse(bytes.NewReader(wire))
		if err != nil || resp.Phases == nil {
			return
		}
		encoded := roundTripResponse(t, resp)
		unphased := *resp
		unphased.Phases = nil
		var u bytes.Buffer
		if err := WriteResponse(&u, &unphased); err != nil {
			t.Fatalf("encode of unphased form failed: %v", err)
		}
		const hdr = rspHdrLen + 4
		want := append([]byte{}, u.Bytes()[:hdr]...)
		binary.LittleEndian.PutUint16(want[6:], resp.Status|respFlagPhases)
		for _, ns := range []uint64{resp.Phases.WireReadNS, resp.Phases.QueueNS, resp.Phases.ServiceNS, resp.Phases.WireWriteNS} {
			want = binary.LittleEndian.AppendUint64(want, ns)
		}
		want = append(want, u.Bytes()[hdr:]...)
		if !bytes.Equal(encoded, want) {
			t.Fatalf("phased completion is not its plain form plus the extension:\n got %x\nwant %x", encoded, want)
		}
	})
}

// roundTripResponse checks that a parsed completion re-encodes and
// re-parses identically, phase-timing extension included, and returns
// its encoding.
func roundTripResponse(t *testing.T, resp *Response) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := WriteResponse(&out, resp); err != nil {
		t.Fatalf("re-encode failed: %v", err)
	}
	encoded := out.Bytes()
	again, err := ReadResponse(bytes.NewReader(encoded))
	if err != nil {
		t.Fatalf("re-parse failed: %v", err)
	}
	if again.CID != resp.CID || again.Status != resp.Status || again.Value != resp.Value ||
		!bytes.Equal(again.Data, resp.Data) {
		t.Fatal("response round trip diverged")
	}
	if (again.Phases == nil) != (resp.Phases == nil) {
		t.Fatal("phase extension lost in round trip")
	}
	if resp.Phases != nil && *again.Phases != *resp.Phases {
		t.Fatal("phase timings diverged")
	}
	return encoded
}

// countingReader wraps a reader and counts bytes actually consumed, so
// the fuzzer can prove the parser never reads past a capsule's frame.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// FuzzReadBatchedCapsules hardens the target against a corrupted
// batched flush. A batch is a byte-exact concatenation of capsules,
// so the target parses it with the same ReadCommand loop as
// unbatched traffic — this fuzzer feeds it arbitrary concatenated
// streams and checks the three invariants batching leans on:
//
//  1. no panic on any input;
//  2. no over-read: each parsed capsule consumes exactly as many bytes
//     as its canonical re-encoding occupies, so a corrupt capsule can
//     never swallow the start of its successor;
//  3. no CID mis-association: re-encoding the parsed prefix and parsing
//     it again yields the same (CID, opcode, payload) sequence, i.e.
//     completions built from this parse would pair with the right
//     commands.
func FuzzReadBatchedCapsules(f *testing.F) {
	// Seed with a genuine three-capsule batch (what the host's vectored
	// flush emits), one of them traced.
	var batch bytes.Buffer
	WriteCommand(&batch, &Command{Opcode: OpWriteCmd, CID: 11, NSID: 1, Offset: 0, Data: bytes.Repeat([]byte{0xA1}, 512)})
	WriteCommand(&batch, &Command{Opcode: OpWriteCmd, CID: 12, NSID: 1, Offset: 512, Traced: true, TraceID: 0xBEEF, Data: bytes.Repeat([]byte{0xA2}, 512)})
	WriteCommand(&batch, &Command{Opcode: OpFlushCmd, CID: 13, NSID: 1})
	f.Add(batch.Bytes())
	// A batch truncated mid-payload (torn vectored write).
	f.Add(batch.Bytes()[:batch.Len()-100])
	// A batch whose second header is corrupted.
	torn := append([]byte(nil), batch.Bytes()...)
	torn[cmdHdrLen+512+4] ^= 0xFF
	f.Add(torn)
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x4E}, 96))

	f.Fuzz(func(t *testing.T, wire []byte) {
		cr := &countingReader{r: bytes.NewReader(wire)}
		var parsed []*Command
		for {
			before := cr.n
			cmd, err := ReadCommand(cr)
			if err != nil {
				break // corruption rejected cleanly; prefix stays valid
			}
			if int64(len(cmd.Data)) > MaxDataLen {
				t.Fatalf("capsule %d accepted %d bytes of in-capsule data", len(parsed), len(cmd.Data))
			}
			// Invariant 2: consumed bytes == canonical encoding length.
			var canon bytes.Buffer
			if err := WriteCommand(&canon, cmd); err != nil {
				t.Fatalf("re-encode of parsed capsule failed: %v", err)
			}
			if consumed := cr.n - before; consumed != int64(canon.Len()) {
				t.Fatalf("capsule %d consumed %d bytes but re-encodes to %d: parser over- or under-read",
					len(parsed), consumed, canon.Len())
			}
			parsed = append(parsed, cmd)
			if len(parsed) > 1024 {
				break // plenty; bound fuzz time on giant inputs
			}
		}
		if len(parsed) == 0 {
			return
		}
		// Invariant 3: the parsed prefix re-batches (concatenates) and
		// re-parses to the same command sequence — CIDs stay with their
		// opcodes and payloads.
		var rebatch bytes.Buffer
		for _, cmd := range parsed {
			if err := WriteCommand(&rebatch, cmd); err != nil {
				t.Fatalf("re-batching failed: %v", err)
			}
		}
		rr := bytes.NewReader(rebatch.Bytes())
		for i, want := range parsed {
			got, err := ReadCommand(rr)
			if err != nil {
				t.Fatalf("re-parse of re-batched capsule %d failed: %v", i, err)
			}
			if got.CID != want.CID || got.Opcode != want.Opcode ||
				got.Offset != want.Offset || got.Length != want.Length ||
				got.Traced != want.Traced || got.TraceID != want.TraceID ||
				!bytes.Equal(got.Data, want.Data) {
				t.Fatalf("capsule %d mis-associated after re-batching: CID %d/%d opcode %d/%d",
					i, got.CID, want.CID, got.Opcode, want.Opcode)
			}
		}
		if rr.Len() != 0 {
			t.Fatalf("%d stray bytes after re-parsing the re-batched stream", rr.Len())
		}
	})
}

// FuzzCommandStream feeds a stream of frames to the parser the way a
// queue pair would, ensuring truncation always surfaces as an error, not
// a hang or partial parse.
func FuzzCommandStream(f *testing.F) {
	var buf bytes.Buffer
	WriteCommand(&buf, &Command{Opcode: OpConnect, NSID: 1})
	WriteCommand(&buf, &Command{Opcode: OpReadCmd, Offset: 0, Length: 64})
	f.Add(buf.Bytes(), 2)
	f.Add(buf.Bytes()[:buf.Len()-3], 2)

	f.Fuzz(func(t *testing.T, wire []byte, n int) {
		r := bytes.NewReader(wire)
		for i := 0; i < n%8; i++ {
			if _, err := ReadCommand(r); err != nil {
				if err == io.EOF || err == io.ErrUnexpectedEOF {
					return
				}
				return // malformed: rejected cleanly
			}
		}
	})
}
