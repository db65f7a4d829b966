// Package harness defines one runner per table and figure in the
// paper's evaluation (§IV). Each experiment builds a fresh simulated
// cluster, drives the workload over NVMe-CR and/or the baselines, and
// returns a Table whose rows mirror what the paper reports. The `Quick`
// option shrinks process counts and data volumes so the full suite runs
// in seconds (used by tests); the default reproduces paper scale.
package harness

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"github.com/nvme-cr/nvmecr/internal/telemetry"
)

// Options configures a harness run.
type Options struct {
	// Quick shrinks scales so every experiment finishes fast.
	Quick bool
	// Trace, when non-nil, receives a JSONL event stream of the run:
	// one experiment marker per table plus a virtual-time span for
	// every rank's writes, fsyncs, snapshots, and restarts. The same
	// simulated workload produces the same virtual-time trace.
	Trace io.Writer
}

// activeTracer is the tracer for the experiment currently inside Run.
// Experiments build their runtimes several layers below Run, so the
// tracer is published here rather than threaded through every runner.
var (
	tracerMu     sync.Mutex
	activeTracer *telemetry.Tracer
)

func setActiveTracer(t *telemetry.Tracer) {
	tracerMu.Lock()
	activeTracer = t
	tracerMu.Unlock()
}

func currentTracer() *telemetry.Tracer {
	tracerMu.Lock()
	defer tracerMu.Unlock()
	return activeTracer
}

// Table is one reproduced figure or table.
type Table struct {
	ID        string
	Title     string
	PaperNote string // the result the paper reports for this artifact
	Header    []string
	Rows      [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cols ...string) { t.Rows = append(t.Rows, cols) }

// Print renders the table.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s\n", t.ID, t.Title)
	if t.PaperNote != "" {
		fmt.Fprintf(w, "   paper: %s\n", t.PaperNote)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cols []string) {
		parts := make([]string, len(cols))
		for i, c := range cols {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintf(w, "   %s\n", strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// Runner executes one experiment.
type Runner func(opts Options) (*Table, error)

var registry = map[string]Runner{}

func register(id string, r Runner) { registry[id] = r }

// IDs returns the registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, opts Options) (*Table, error) {
	r, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
	}
	if opts.Trace == nil {
		return r(opts)
	}
	tr := telemetry.NewTracer(opts.Trace)
	tr.Emit(telemetry.Event{
		Name: "harness.experiment", Rank: -1,
		Attrs: map[string]any{"id": id, "quick": opts.Quick},
	})
	setActiveTracer(tr)
	defer setActiveTracer(nil)
	tbl, err := r(opts)
	// A broken trace sink fails the run: a trace that silently lost
	// events is worse than no trace, because it parses and misleads.
	if cerr := tr.Close(); cerr != nil && err == nil {
		return nil, fmt.Errorf("harness: trace sink: %w", cerr)
	}
	return tbl, err
}

// f2 formats a float with two decimals; f3 with three.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
