package balancer

import "testing"

// The reference address map. Spans walks a striped range one unit at a
// time and says where each run lives; production code derives the same
// layout arithmetically (GroupAt, Extent, Piece in stripe.go), and the
// tests hold one against the other.

// Logical returns the unreplicated geometry the address-space math runs
// over: one "target" per mirror group. Span decomposition of a
// mirrored geometry is span decomposition of its logical geometry with
// Span.Target meaning GROUP.
func (g StripeGeometry) Logical() StripeGeometry {
	return StripeGeometry{Targets: g.Groups(), Unit: g.Unit}
}

// StripeSpan is one contiguous run of a striped request on one target
// (one GROUP for mirrored geometry — every member of the group stores
// the same bytes at the same member-local offset): bytes
// [Off, Off+Length) of the striped address space live at
// [TargetOff, TargetOff+Length) on target/group Target. A span never
// crosses a unit boundary before coalescing.
type StripeSpan struct {
	Target    int
	TargetOff int64
	Off       int64
	Length    int64
}

// Spans decomposes the striped byte range [off, off+length) into
// per-group spans, in striped-address order. Spans on the same group
// whose member offsets are adjacent are coalesced (a request larger
// than Groups*Unit revisits each group with contiguous runs). For
// mirrored geometry Span.Target is the GROUP index; resolve members
// with Member.
func (g StripeGeometry) Spans(off, length int64) []StripeSpan {
	if length <= 0 {
		return nil
	}
	groups := int64(g.Groups())
	out := make([]StripeSpan, 0, (length+g.Unit-1)/g.Unit+1)
	for cur := off; cur < off+length; {
		stripeNo := cur / g.Unit
		in := cur % g.Unit
		n := g.Unit - in
		if rest := off + length - cur; n > rest {
			n = rest
		}
		s := StripeSpan{
			Target:    int(stripeNo % groups),
			TargetOff: (stripeNo/groups)*g.Unit + in,
			Off:       cur,
			Length:    n,
		}
		if last := len(out) - 1; last >= 0 &&
			out[last].Target == s.Target &&
			out[last].TargetOff+out[last].Length == s.TargetOff {
			out[last].Length += s.Length
		} else {
			out = append(out, s)
		}
		cur += n
	}
	return out
}

// TestStripeExtentMatchesSpans holds the arithmetic address map against
// the unit-at-a-time reference, exhaustively over small geometries: per
// group, Extent is exactly the union of that group's spans, walking it
// with Piece visits the spans' bytes at the same striped and
// member-local addresses in the same order, GroupAt names the first
// span's group, Units counts the spans and each extent's pieces, and
// Touched the groups that hold any.
func TestStripeExtentMatchesSpans(t *testing.T) {
	type at struct{ striped, local int64 }
	for groups := 1; groups <= 5; groups++ {
		for unit := int64(1); unit <= 7; unit++ {
			g := StripeGeometry{Targets: groups, Unit: unit}
			for off := int64(0); off < 3*unit*int64(groups); off++ {
				for length := int64(1); length <= 64; length++ {
					spans := g.Spans(off, length)
					if got := g.GroupAt(off); got != spans[0].Target {
						t.Fatalf("geo=%+v GroupAt(%d) = %d, spans start on %d", g, off, got, spans[0].Target)
					}
					// Spans coalesces unit runs only where one group holds them all.
					if got := g.Units(off, length); groups > 1 && got != int64(len(spans)) {
						t.Fatalf("geo=%+v Units(%d, %d) = %d, want %d spans", g, off, length, got, len(spans))
					}
					touched := 0
					for group := 0; group < groups; group++ {
						var want []at
						for _, sp := range spans {
							for i := int64(0); sp.Target == group && i < sp.Length; i++ {
								want = append(want, at{sp.Off + i, sp.TargetOff + i})
							}
						}
						if len(want) > 0 {
							touched++
						}
						lo, hi := g.Extent(group, off, length)
						if hi-lo != int64(len(want)) || (len(want) > 0 && lo != want[0].local) {
							t.Fatalf("geo=%+v [%d,+%d) group %d: Extent = [%d,%d), spans hold %d bytes from %+v",
								g, off, length, group, lo, hi, len(want), want)
						}
						var got []at
						pieces := int64(0)
						for a := lo; a < hi; pieces++ {
							addr, n := g.Piece(group, a)
							if n <= 0 {
								t.Fatalf("geo=%+v Piece(%d, %d) run %d", g, group, a, n)
							}
							for i := int64(0); i < min(n, hi-a); i++ {
								got = append(got, at{addr + i, a + i})
							}
							a += n
						}
						if lo < hi && pieces != g.Units(lo, hi-lo) {
							t.Fatalf("geo=%+v [%d,+%d) group %d: walked %d pieces, Units(%d, %d) = %d",
								g, off, length, group, pieces, lo, hi-lo, g.Units(lo, hi-lo))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("geo=%+v [%d,+%d) group %d byte %d: walk at %+v, spans at %+v",
									g, off, length, group, i, got[i], want[i])
							}
						}
					}
					if got := g.Touched(off, length); got != touched {
						t.Fatalf("geo=%+v Touched(%d, %d) = %d, spans reach %d groups", g, off, length, got, touched)
					}
				}
			}
		}
	}
}
