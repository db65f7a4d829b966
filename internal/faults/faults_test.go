package faults

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// drive replays a fixed point sequence against a fresh plan built from
// the given seed and rules, returning the injection trace.
func drive(seed int64, rules []Rule, points []Point) []Injection {
	p := NewPlan(seed, rules...)
	for _, pt := range points {
		p.Eval(pt)
	}
	return p.Trace()
}

func somePoints(n int) []Point {
	pts := make([]Point, n)
	for i := range pts {
		op := "write"
		if i%3 == 1 {
			op = "read"
		}
		pts[i] = Point{Layer: LayerNVMe, Op: op, Rank: i % 4, Now: time.Duration(i) * time.Millisecond}
	}
	return pts
}

func TestSameSeedSameTrace(t *testing.T) {
	rules := []Rule{
		{Name: "flaky-media", Layer: LayerNVMe, Op: "write", Probability: 0.3, Kind: KindMediaError},
		{Name: "late-stall", Layer: LayerNVMe, After: 20 * time.Millisecond, Probability: 0.2, Kind: KindStall, Arg: 5000},
	}
	pts := somePoints(200)
	a := drive(42, rules, pts)
	b := drive(42, rules, pts)
	if len(a) == 0 {
		t.Fatal("probability rules never fired over 200 points; trace is vacuous")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different traces:\n%v\nvs\n%v", a, b)
	}
	c := drive(43, rules, pts)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical probabilistic traces")
	}
}

func TestNthFiresExactlyOnce(t *testing.T) {
	rules := []Rule{{Layer: LayerNVMe, Op: "write", Nth: 3, Kind: KindMediaError}}
	p := NewPlan(1, rules...)
	var fired []int
	writes := 0
	for i := 0; i < 10; i++ {
		// Interleave reads: they must not advance the write rule's count.
		p.Eval(Point{Layer: LayerNVMe, Op: "read", Rank: 0})
		if _, ok := p.Eval(Point{Layer: LayerNVMe, Op: "write", Rank: 0}); ok {
			writes++
			fired = append(fired, i)
		} else {
			writes++
		}
	}
	if len(fired) != 1 || fired[0] != 2 {
		t.Fatalf("Nth=3 fired at write indices %v, want [2]", fired)
	}
}

func TestWindowAndCount(t *testing.T) {
	rules := []Rule{{
		Layer: LayerFabric, After: 10 * time.Millisecond, Until: 20 * time.Millisecond,
		Count: 2, Kind: KindPartition,
	}}
	p := NewPlan(7, rules...)
	var hits []time.Duration
	for i := 0; i < 30; i++ {
		now := time.Duration(i) * time.Millisecond
		if _, ok := p.Eval(Point{Layer: LayerFabric, Op: "transfer", Rank: -1, Now: now}); ok {
			hits = append(hits, now)
		}
	}
	want := []time.Duration{10 * time.Millisecond, 11 * time.Millisecond}
	if !reflect.DeepEqual(hits, want) {
		t.Fatalf("window+count fired at %v, want %v", hits, want)
	}
}

func TestRankScope(t *testing.T) {
	p := NewPlan(1, Rule{Layer: LayerProcess, Ranks: []int{2}, Kind: KindCrash})
	if _, ok := p.Eval(Point{Layer: LayerProcess, Op: "write", Rank: 1}); ok {
		t.Fatal("rank-scoped rule fired for the wrong rank")
	}
	if _, ok := p.Eval(Point{Layer: LayerProcess, Op: "write", Rank: 2}); !ok {
		t.Fatal("rank-scoped rule did not fire for its rank")
	}
}

func TestFirstEligibleRuleWins(t *testing.T) {
	p := NewPlan(1,
		Rule{Name: "first", Layer: LayerWAL, Kind: KindCrash},
		Rule{Name: "second", Layer: LayerWAL, Kind: KindTornWrite},
	)
	inj, ok := p.Eval(Point{Layer: LayerWAL, Op: "append", Rank: -1})
	if !ok || inj.Name != "first" || inj.Kind != KindCrash {
		t.Fatalf("got %+v, want the first rule", inj)
	}
	if n := p.Injections(); n != 1 {
		t.Fatalf("one point delivered %d injections, want 1", n)
	}
}

func TestNilPlanIsNoop(t *testing.T) {
	var p *Plan
	if _, ok := p.Eval(Point{Layer: LayerNVMe, Op: "write"}); ok {
		t.Fatal("nil plan fired")
	}
	if p.Injections() != 0 || p.Trace() != nil || p.Seed() != 0 {
		t.Fatal("nil plan has state")
	}
	if !strings.Contains(p.FormatTrace(), "no plan") {
		t.Fatalf("nil plan trace: %q", p.FormatTrace())
	}
}

func TestTelemetryAndTraceWiring(t *testing.T) {
	var out strings.Builder
	tr := telemetry.NewTracer(&out)
	p := NewPlan(9, Rule{Layer: LayerNVMe, Nth: 1, Kind: KindMediaError})
	p.WithTracer(tr)
	p.Eval(Point{Layer: LayerNVMe, Op: "write", Rank: 0})
	if n := tr.Events(); n != 1 {
		t.Fatalf("tracer got %d events, want 1", n)
	}
	if ev := out.String(); !strings.Contains(ev, `"fault.injected"`) || !strings.Contains(ev, `"media-error"`) {
		t.Fatalf("fault event missing name or kind: %q", ev)
	}
	ft := p.FormatTrace()
	if !strings.Contains(ft, "seed=9") || !strings.Contains(ft, "media-error") {
		t.Fatalf("FormatTrace missing seed or kind: %q", ft)
	}
}

func TestTornAppendFunc(t *testing.T) {
	var dev []byte
	inner := func(off int64, data []byte) error {
		if int(off) != len(dev) {
			t.Fatalf("non-sequential flush at %d with %d on device", off, len(dev))
		}
		dev = append(dev, data...)
		return nil
	}
	p := NewPlan(3, Rule{Layer: LayerWAL, Op: "append", Nth: 2, Kind: KindTornWrite, Arg: 3})
	w := TornAppendFunc(p, 0, 0, nil, inner)
	if err := w(0, []byte("abcdefgh")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	err := w(8, []byte("ijklmnop"))
	if err == nil || !IsInjected(err) {
		t.Fatalf("torn append error = %v, want injected", err)
	}
	if string(dev) != "abcdefghijk" {
		t.Fatalf("device holds %q, want full first flush + 3-byte torn prefix", dev)
	}
}

// TestTornAppendStraddle: a flush is a straddle when it crosses a log
// page boundary, whatever its length, and a straddle tear at Arg =
// pageBytes keeps what lies before the first boundary it crosses — the
// whole first page of a page-aligned flush, as before the log could
// flush only the bytes it changed.
func TestTornAppendStraddle(t *testing.T) {
	const page = 128
	for _, tc := range []struct {
		name      string
		off, n    int64
		straddles bool
		keep      int64
	}{
		{"pages", 2 * page, 2 * page, true, page},
		{"one page", 2 * page, page, false, 0},
		{"exact, crossing", 100, 60, true, 28},
		{"exact, ending on the boundary", 100, 28, false, 0},
		{"exact, from the boundary", page, 60, false, 0},
	} {
		var landed int64
		inner := func(off int64, data []byte) error {
			if off != tc.off {
				t.Fatalf("%s: landed at %d, want %d", tc.name, off, tc.off)
			}
			landed = int64(len(data))
			return nil
		}
		p := NewPlan(1, Rule{Layer: LayerWAL, Op: "append-straddle", Kind: KindTornWrite, Arg: page})
		err := TornAppendFunc(p, 0, page, nil, inner)(tc.off, make([]byte, tc.n))
		if tc.straddles != IsInjected(err) {
			t.Errorf("%s: [%d,+%d) injected=%v, want a straddle=%v", tc.name, tc.off, tc.n, IsInjected(err), tc.straddles)
		}
		if tc.straddles && landed != tc.keep {
			t.Errorf("%s: the tear kept %d bytes, want %d", tc.name, landed, tc.keep)
		}
	}
}
