// Command nvmecr-trace analyses JSON Lines traces written by the
// harness (nvmecr-bench -trace) or any telemetry.Tracer sink.
//
// Usage:
//
//	nvmecr-trace [-top K] [-epochs] [-chrome file] [trace.jsonl]
//
// With no file argument the trace is read from stdin. The default
// output is a span summary (count and duration quantiles per span
// name), the per-opcode NVMe-oF phase breakdown (wire / queue /
// service p50/p95/p99, from nvmeof.cmd spans), the top-K slowest
// commands annotated with any flight-recorder context dumped into the
// trace (nvmeof.flight events), and a timeline of stripe-migration
// state transitions (rebalance.transition events). -epochs adds
// per-rank checkpoint-epoch critical paths derived from the
// virtual-clock microfs spans. -chrome
// exports the whole trace as Chrome trace_event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing: the wall and virtual
// clocks become separate processes, ranks become threads.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

func main() {
	topK := flag.Int("top", 10, "how many slowest commands to list")
	epochs := flag.Bool("epochs", false, "print per-rank checkpoint-epoch critical paths")
	chrome := flag.String("chrome", "", "export Chrome trace_event JSON to `file` (Perfetto)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nvmecr-trace [-top K] [-epochs] [-chrome file] [trace.jsonl]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	events, err := readTrace(in)
	if err != nil {
		fatal(err)
	}
	if len(events) == 0 {
		fatal(fmt.Errorf("no events in trace"))
	}

	if *chrome != "" {
		f, err := os.Create(*chrome)
		if err != nil {
			fatal(err)
		}
		if err := writeChrome(f, events); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %d trace events to %s\n", len(events), *chrome)
		return
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	printSummary(w, events)
	printPhases(w, events)
	printSlowest(w, events, *topK)
	printFlightDumps(w, events)
	printRebalance(w, events)
	if *epochs {
		printEpochs(w, events)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "nvmecr-trace: %v\n", err)
	os.Exit(1)
}

// readTrace decodes one telemetry.Event per line, skipping blanks.
func readTrace(r io.Reader) ([]telemetry.Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24) // flight dumps make long lines
	var events []telemetry.Event
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		events = append(events, ev)
	}
	return events, sc.Err()
}

// dur returns the event's span duration on whichever clock it carries.
func dur(ev telemetry.Event) time.Duration {
	if ev.WallDurNS > 0 {
		return time.Duration(ev.WallDurNS)
	}
	return time.Duration(ev.VirtEndNS - ev.VirtStartNS)
}

// quantile returns the q-th quantile (0..1) of sorted durations by
// linear interpolation between closest ranks.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + time.Duration(frac*float64(sorted[lo+1]-sorted[lo]))
}

// attrFloat reads a numeric attribute (JSON numbers decode as float64).
func attrFloat(ev telemetry.Event, key string) (float64, bool) {
	v, ok := ev.Attrs[key]
	if !ok {
		return 0, false
	}
	f, ok := v.(float64)
	return f, ok
}

func attrString(ev telemetry.Event, key string) string {
	s, _ := ev.Attrs[key].(string)
	return s
}

// printSummary prints count and duration quantiles per span name.
func printSummary(w io.Writer, events []telemetry.Event) {
	byName := map[string][]time.Duration{}
	var names []string
	for _, ev := range events {
		if ev.Kind != "span" {
			continue
		}
		if _, ok := byName[ev.Name]; !ok {
			names = append(names, ev.Name)
		}
		byName[ev.Name] = append(byName[ev.Name], dur(ev))
	}
	sort.Strings(names)
	fmt.Fprintf(w, "Span summary (%d events)\n", len(events))
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  span\tcount\ttotal\tp50\tp95\tp99\n")
	for _, name := range names {
		ds := byName[name]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var total time.Duration
		for _, d := range ds {
			total += d
		}
		fmt.Fprintf(tw, "  %s\t%d\t%v\t%v\t%v\t%v\n", name, len(ds),
			total.Round(time.Microsecond),
			quantile(ds, 0.50).Round(time.Nanosecond),
			quantile(ds, 0.95).Round(time.Nanosecond),
			quantile(ds, 0.99).Round(time.Nanosecond))
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// phaseKeys are the nvmeof.cmd span attributes holding the breakdown.
var phaseKeys = []string{"wire_ns", "queue_ns", "service_ns"}

// printPhases prints the per-opcode phase breakdown from nvmeof.cmd
// spans: for each opcode, p50/p95/p99 of wire, queue, and service time.
func printPhases(w io.Writer, events []telemetry.Event) {
	type phaseSet map[string][]time.Duration
	byOp := map[string]phaseSet{}
	var ops []string
	for _, ev := range events {
		if ev.Name != "nvmeof.cmd" {
			continue
		}
		op := attrString(ev, "op")
		if op == "" {
			op = "?"
		}
		ps, ok := byOp[op]
		if !ok {
			ps = phaseSet{}
			byOp[op] = ps
			ops = append(ops, op)
		}
		for _, key := range phaseKeys {
			if f, ok := attrFloat(ev, key); ok {
				ps[key] = append(ps[key], time.Duration(f))
			}
		}
		ps["rtt"] = append(ps["rtt"], dur(ev))
	}
	if len(ops) == 0 {
		fmt.Fprintf(w, "NVMe-oF command phases: no nvmeof.cmd spans in trace\n\n")
		return
	}
	sort.Strings(ops)
	fmt.Fprintf(w, "NVMe-oF command phases\n")
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "  op\tphase\tcount\tp50\tp95\tp99\n")
	for _, op := range ops {
		ps := byOp[op]
		for _, key := range append([]string{"rtt"}, phaseKeys...) {
			ds := ps[key]
			if len(ds) == 0 {
				continue
			}
			sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
			fmt.Fprintf(tw, "  %s\t%s\t%d\t%v\t%v\t%v\n", op, key, len(ds),
				quantile(ds, 0.50).Round(time.Nanosecond),
				quantile(ds, 0.95).Round(time.Nanosecond),
				quantile(ds, 0.99).Round(time.Nanosecond))
		}
	}
	tw.Flush()
	fmt.Fprintln(w)
}

// flightIndex maps trace IDs (as emitted: 16-hex-digit strings) to the
// flight records that mention them, collected from nvmeof.flight dumps.
func flightIndex(events []telemetry.Event) map[string][]map[string]any {
	idx := map[string][]map[string]any{}
	for _, ev := range events {
		if ev.Name != "nvmeof.flight" {
			continue
		}
		recs, _ := ev.Attrs["records"].([]any)
		for _, r := range recs {
			rec, ok := r.(map[string]any)
			if !ok {
				continue
			}
			if id, ok := rec["trace_id"].(float64); ok && id != 0 {
				key := fmt.Sprintf("%016x", uint64(id))
				idx[key] = append(idx[key], rec)
			}
		}
	}
	return idx
}

// printSlowest lists the top-K slowest commands. When the trace holds
// nvmeof.cmd spans they rank; otherwise the slowest spans of any name
// rank, so purely simulated traces still get a useful hot list. Each
// slow command is annotated with flight-recorder context when a dump
// in the trace mentions its trace ID.
func printSlowest(w io.Writer, events []telemetry.Event, k int) {
	if k <= 0 {
		return
	}
	var cmds []telemetry.Event
	for _, ev := range events {
		if ev.Name == "nvmeof.cmd" {
			cmds = append(cmds, ev)
		}
	}
	title := "Slowest commands"
	if len(cmds) == 0 {
		title = "Slowest spans"
		for _, ev := range events {
			if ev.Kind == "span" {
				cmds = append(cmds, ev)
			}
		}
	}
	if len(cmds) == 0 {
		return
	}
	sort.Slice(cmds, func(i, j int) bool { return dur(cmds[i]) > dur(cmds[j]) })
	if len(cmds) > k {
		cmds = cmds[:k]
	}
	flights := flightIndex(events)
	fmt.Fprintf(w, "%s (top %d)\n", title, len(cmds))
	for i, ev := range cmds {
		fmt.Fprintf(w, "  %2d. %-16s %v", i+1, ev.Name, dur(ev).Round(time.Nanosecond))
		if op := attrString(ev, "op"); op != "" {
			fmt.Fprintf(w, "  op=%s", op)
		}
		if ev.Rank >= 0 {
			fmt.Fprintf(w, "  rank=%d", ev.Rank)
		}
		if qp, ok := attrFloat(ev, "qp"); ok {
			fmt.Fprintf(w, "  qp=%d", int(qp))
		}
		for _, key := range phaseKeys {
			if f, ok := attrFloat(ev, key); ok {
				fmt.Fprintf(w, "  %s=%v", key[:len(key)-3], time.Duration(f))
			}
		}
		fmt.Fprintln(w)
		if id := attrString(ev, "trace_id"); id != "" {
			for _, rec := range flights[id] {
				fmt.Fprintf(w, "      flight: %s\n", flightLine(rec))
			}
		}
	}
	fmt.Fprintln(w)
}

// flightLine renders one JSON-decoded FlightRecord compactly.
func flightLine(rec map[string]any) string {
	op, _ := rec["op"].(string)
	s := op
	if cid, ok := rec["cid"].(float64); ok {
		s += fmt.Sprintf(" cid=%d", int(cid))
	}
	if qp, ok := rec["qp"].(float64); ok {
		s += fmt.Sprintf(" qp=%d", int(qp))
	}
	if st, ok := rec["status"].(float64); ok {
		s += fmt.Sprintf(" status=%d", int(st))
	}
	if el, ok := rec["elapsed_ns"].(float64); ok {
		s += fmt.Sprintf(" elapsed=%v", time.Duration(el))
	}
	if errStr, ok := rec["err"].(string); ok && errStr != "" {
		s += " err=" + errStr
	}
	return s
}

func mustFloat(ev telemetry.Event, key string) float64 {
	f, _ := attrFloat(ev, key)
	return f
}

// printRebalance lists the migration plane's state transitions in
// trace order: each migration's member, state chain, spare label, and
// bytes copied so far — the timeline of a live stripe move, from drain
// through cutover (or rollback).
func printRebalance(w io.Writer, events []telemetry.Event) {
	var base int64
	for _, ev := range events {
		if ev.Name != "rebalance.transition" {
			continue
		}
		if base == 0 {
			base = ev.WallNS
			fmt.Fprintf(w, "Rebalance migrations\n")
		}
		at := time.Duration(ev.WallNS - base)
		from := attrString(ev, "from")
		if from == "" {
			from = "new"
		}
		line := fmt.Sprintf("  +%-12v migration %d member %d (group %d): %s -> %s",
			at.Round(time.Microsecond),
			int64(mustFloat(ev, "migration")),
			int64(mustFloat(ev, "child")),
			int64(mustFloat(ev, "group")),
			from, attrString(ev, "to"))
		if spare := attrString(ev, "spare"); spare != "" {
			line += " spare=" + spare
		}
		if copied := mustFloat(ev, "copied"); copied > 0 {
			line += fmt.Sprintf(" copied=%d", int64(copied))
		}
		if reason := attrString(ev, "reason"); reason != "" {
			line += " reason=" + reason
		}
		fmt.Fprintln(w, line)
	}
	if base != 0 {
		fmt.Fprintln(w)
	}
}

// printFlightDumps summarises every flight-recorder dump in the trace:
// why it fired, which queue pair, and the tail of its ring.
func printFlightDumps(w io.Writer, events []telemetry.Event) {
	n := 0
	for _, ev := range events {
		if ev.Name != "nvmeof.flight" {
			continue
		}
		if n == 0 {
			fmt.Fprintf(w, "Flight-recorder dumps\n")
		}
		n++
		recs, _ := ev.Attrs["records"].([]any)
		qp, _ := attrFloat(ev, "qp")
		fmt.Fprintf(w, "  qp=%d reason=%s (%d records)\n",
			int(qp), attrString(ev, "reason"), len(recs))
		// The ring is oldest-first; the tail is what led up to the dump.
		tail := recs
		if len(tail) > 5 {
			tail = tail[len(tail)-5:]
		}
		for _, r := range tail {
			if rec, ok := r.(map[string]any); ok {
				fmt.Fprintf(w, "      %s\n", flightLine(rec))
			}
		}
	}
	if n > 0 {
		fmt.Fprintln(w)
	}
}

// epoch is one checkpoint interval on one rank: the spans between two
// durability barriers (microfs.fsync or microfs.snapshot completions).
type epoch struct {
	rank      int
	start     time.Duration // virtual
	end       time.Duration
	writeNS   time.Duration
	writes    int
	barrier   string
	barrierNS time.Duration
}

// printEpochs derives per-rank checkpoint epochs from the virtual
// microfs spans and prints each epoch's critical path: how much of the
// epoch was write time vs the closing durability barrier.
func printEpochs(w io.Writer, events []telemetry.Event) {
	byRank := map[int][]telemetry.Event{}
	var ranks []int
	for _, ev := range events {
		if ev.Kind != "span" || ev.Rank < 0 || ev.VirtEndNS == 0 {
			continue
		}
		if _, ok := byRank[ev.Rank]; !ok {
			ranks = append(ranks, ev.Rank)
		}
		byRank[ev.Rank] = append(byRank[ev.Rank], ev)
	}
	sort.Ints(ranks)
	fmt.Fprintf(w, "Checkpoint epochs (virtual clock)\n")
	total := 0
	for _, rank := range ranks {
		spans := byRank[rank]
		sort.Slice(spans, func(i, j int) bool { return spans[i].VirtStartNS < spans[j].VirtStartNS })
		var eps []epoch
		cur := epoch{rank: rank, start: time.Duration(spans[0].VirtStartNS)}
		for _, ev := range spans {
			switch ev.Name {
			case "microfs.write":
				cur.writeNS += dur(ev)
				cur.writes++
			case "microfs.fsync", "microfs.snapshot":
				cur.barrier = ev.Name
				cur.barrierNS = dur(ev)
				cur.end = time.Duration(ev.VirtEndNS)
				// Barriers on concurrent files can end at the same
				// virtual instant; they are one epoch boundary, not an
				// empty epoch each.
				if cur.end > cur.start || cur.writes > 0 {
					eps = append(eps, cur)
				}
				cur = epoch{rank: rank, start: time.Duration(ev.VirtEndNS)}
			}
		}
		for i, ep := range eps {
			span := ep.end - ep.start
			other := span - ep.writeNS - ep.barrierNS
			if other < 0 {
				other = 0
			}
			fmt.Fprintf(w, "  rank %d epoch %d: %v  (write %v x%d, %s %v, other %v)\n",
				rank, i, span.Round(time.Microsecond),
				ep.writeNS.Round(time.Microsecond), ep.writes,
				ep.barrier, ep.barrierNS.Round(time.Microsecond),
				other.Round(time.Microsecond))
			total++
		}
	}
	if total == 0 {
		fmt.Fprintf(w, "  no rank-scoped virtual spans with durability barriers\n")
	}
	fmt.Fprintln(w)
}

// chromeEvent is one Chrome trace_event record ("X" complete spans,
// "i" instants, "M" metadata). Timestamps are microseconds.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	TsUS float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Str  string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

const (
	pidWall = 1 // wall-clock events (real TCP paths, harness markers)
	pidVirt = 2 // virtual-clock events (deterministic simulation)
)

// writeChrome exports the trace in Chrome trace_event JSON (the
// "traceEvents" object form), loadable in Perfetto or chrome://tracing.
// Wall and virtual clocks become separate processes so their
// incomparable timebases never share an axis; ranks become threads
// (rank -1, the fabric, is thread 0 keyed by queue pair when known).
func writeChrome(w io.Writer, events []telemetry.Event) error {
	out := []chromeEvent{
		{Name: "process_name", Ph: "M", Pid: pidWall, Args: map[string]any{"name": "wall clock"}},
		{Name: "process_name", Ph: "M", Pid: pidVirt, Args: map[string]any{"name": "virtual clock"}},
	}
	// Rebase wall timestamps so the trace starts near zero; Perfetto
	// renders absolute UnixNano-derived stamps far off-screen.
	var wallBase int64
	for _, ev := range events {
		if ev.WallNS > 0 && (wallBase == 0 || ev.WallNS < wallBase) {
			wallBase = ev.WallNS
		}
	}
	for _, ev := range events {
		isVirt := ev.VirtEndNS > 0 || (ev.Kind == "span" && ev.WallDurNS == 0)
		ce := chromeEvent{Name: ev.Name, Args: ev.Attrs}
		if isVirt {
			ce.Pid = pidVirt
			ce.Tid = ev.Rank
			ce.TsUS = float64(ev.VirtStartNS) / 1e3
		} else {
			ce.Pid = pidWall
			ce.Tid = ev.Rank
			if ev.Rank < 0 {
				ce.Tid = 0
				if qp, ok := attrFloat(ev, "qp"); ok {
					ce.Tid = int(qp)
				}
			}
			ce.TsUS = float64(ev.WallNS-wallBase) / 1e3
		}
		if ev.Kind == "span" {
			ce.Ph = "X"
			ce.Dur = float64(dur(ev)) / 1e3
		} else {
			ce.Ph = "i"
			ce.Str = "t" // thread-scoped instant
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(map[string]any{"traceEvents": out})
}
