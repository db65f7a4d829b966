package balancer

import "fmt"

// StripeGeometry is the layout of one rank's partition across N
// targets. With Replicas <= 1 it is plain RAID-0: unit-sized blocks
// rotate round-robin, so block k of the striped address space lives on
// target k%N at block k/N of that target's segment. With Replicas = R
// it is RAID-10-shaped: the N targets form N/R mirror groups of R
// members each, the address space stripes round-robin over the GROUPS,
// and every member of a group carries an identical copy of its group's
// units. It extends the balancer's placement model — ranks map to SSDs
// round-robin (AllocateSSDs), and with striping a single rank's
// partition itself spreads round-robin across several of them, the
// paper's aggregate-bandwidth shape (§IV): one rank drives N devices
// concurrently instead of queueing behind one. Mirroring buys the
// availability the ROADMAP's millions-of-users deployment needs: any
// R-1 members of a group can die without losing a byte.
type StripeGeometry struct {
	// Targets is the total member count N (>= 1), replicas included.
	Targets int
	// Unit is the stripe unit in bytes (> 0): the run of contiguous
	// bytes placed on one group before rotating to the next.
	Unit int64
	// Replicas is the mirror width R: every stripe unit is stored on R
	// distinct targets. 0 and 1 both mean unreplicated RAID-0. Targets
	// must be a whole number of R-member groups.
	Replicas int
}

// Validate rejects degenerate geometries.
func (g StripeGeometry) Validate() error {
	if g.Targets < 1 {
		return fmt.Errorf("balancer: stripe width %d", g.Targets)
	}
	if g.Unit <= 0 {
		return fmt.Errorf("balancer: stripe unit %d", g.Unit)
	}
	if g.Replicas < 0 {
		return fmt.Errorf("balancer: stripe replicas %d", g.Replicas)
	}
	if r := g.replicas(); g.Targets%r != 0 {
		return fmt.Errorf("balancer: %d targets do not form whole %d-way mirror groups", g.Targets, r)
	}
	return nil
}

// replicas normalizes the mirror width: 0 means unreplicated.
func (g StripeGeometry) replicas() int {
	if g.Replicas < 1 {
		return 1
	}
	return g.Replicas
}

// Groups returns the number of mirror groups (the RAID-0 width the
// address space actually stripes over). Unreplicated geometry has one
// group per target.
func (g StripeGeometry) Groups() int { return g.Targets / g.replicas() }

// Member returns the target index of one replica of a group: members
// of group i are the Replicas consecutive targets starting at
// i*Replicas. Keeping members adjacent keeps target indices stable
// when a replica is swapped out — the group map never reshuffles.
func (g StripeGeometry) Member(group, replica int) int {
	return group*g.replicas() + replica
}

// GroupOf returns the mirror group a target belongs to.
func (g StripeGeometry) GroupOf(target int) int { return target / g.replicas() }

// UsableSize returns the striped address-space size carried by targets
// whose smallest segment is childSize bytes: each group contributes
// whole units only (the tail remainder of every segment is unused),
// and mirrored copies contribute capacity once.
func (g StripeGeometry) UsableSize(childSize int64) int64 {
	if childSize < 0 {
		return 0
	}
	return int64(g.Groups()) * (childSize / g.Unit) * g.Unit
}

// GroupAt returns the group that holds striped address off.
func (g StripeGeometry) GroupAt(off int64) int {
	return int(off / g.Unit % int64(g.Groups()))
}

// Units returns how many stripe units the non-empty byte range
// [off, off+length) straddles. Units are the same size in the striped
// and the member-local address space, so it counts in either: over a
// striped range, the runs that rotate across groups; over an Extent,
// its Pieces.
func (g StripeGeometry) Units(off, length int64) int64 {
	return (off+length-1)/g.Unit - off/g.Unit + 1
}

// Touched returns how many groups the non-empty striped range
// [off, off+length) reaches: one per unit it straddles, from GroupAt(off)
// round the stripe, until it has reached them all.
func (g StripeGeometry) Touched(off, length int64) int {
	return int(min(g.Units(off, length), int64(g.Groups())))
}

// Extent returns the member-local byte range [lo, hi) that the striped
// range [off, off+length) occupies on group; lo == hi means the range
// does not touch it. A contiguous striped range touches each group in
// one contiguous run of that group's own address space (partial units
// can occur only at the two request ends), so the extent is arithmetic:
// it lies between the group's bytes below off and its bytes below
// off+length.
func (g StripeGeometry) Extent(group int, off, length int64) (lo, hi int64) {
	return g.below(group, off), g.below(group, off+length)
}

// below counts the bytes of group at striped addresses under x: one
// unit for every whole row of Groups() units, plus the group's share of
// the row x falls in.
func (g StripeGeometry) below(group int, x int64) int64 {
	row := g.Unit * int64(g.Groups())
	return x/row*g.Unit + min(max(x%row-int64(group)*g.Unit, 0), g.Unit)
}

// Piece is the inverse map, one unit at a time: member-local address a
// of group is striped address addr, and the n bytes from a to the end
// of its unit are contiguous in both address spaces. Walking an extent
// piece by piece visits its bytes in striped-address order.
func (g StripeGeometry) Piece(group int, a int64) (addr, n int64) {
	in := a % g.Unit
	return (a/g.Unit*int64(g.Groups())+int64(group))*g.Unit + in, g.Unit - in
}
