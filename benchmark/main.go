// Command benchmark measures checkpoint/restart end to end through the
// real stack in one process: vfs.Namespace, microfs (WAL, block pool),
// StripedPlane, TCPPlane, HostPool, loopback TCP, Target, MemNamespace.
// See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1
//	go run ./benchmark -workload ckpt_small -trace 1
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

const (
	setUps = 3 // set-ups per run; setup_s is their median
	// A traced pass runs a fifth of the timed epochs, and at least ten.
	tracedShare     = 5
	minTracedEpochs = 10
)

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "all", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seed for payloads and, on meta_storm, file names and sizes")
	seconds := flag.Int("seconds", nominalSeconds, "time budget that sizes the fixed work (timed epochs scale with it, never below 40)")
	trace := flag.Int("trace", 0, "1 adds a shorter traced pass and reports the per-layer metrics")
	traceOut := flag.String("trace-out", "", "span JSONL file (default .bench_build/trace_<workload>.jsonl)")
	selfcheck := flag.Bool("selfcheck", false, "run the workload twice and check that its counts repeat")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}

	names := []string{*name}
	if *name == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	if *selfcheck || *name == "all" {
		// Every run gets a process of its own, so no run inherits
		// another's heap.
		code := 0
		for _, n := range names {
			args := []string{"-workload", n, "-seed", strconv.FormatUint(*seed, 10), "-seconds", strconv.Itoa(*seconds)}
			var err error
			if *selfcheck {
				err = selfCheck(args) // the checked metrics are end-to-end: no traced pass
			} else {
				_, err = runSelf(append(args, "-trace", strconv.Itoa(*trace), "-trace-out", *traceOut), os.Stdout)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", n, err)
				code = 1
			}
		}
		os.Exit(code)
	}

	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(2)
	}
	if *traceOut == "" {
		*traceOut = filepath.Join(".bench_build", "trace_"+w.name+".jsonl")
	}
	res, err := measure(os.Stdout, w, *seed, w.timedEpochs(*seconds), setUps, *trace == 1, *traceOut)
	line, merr := json.Marshal(res)
	if merr != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", merr)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// measure runs one workload and prints its metrics by name and unit to
// out: the untraced pass gives the end-to-end metrics, and with traced
// set a second, shorter pass gives the per-layer metrics, which are then
// the ones the result carries.
func measure(out io.Writer, w workload, seed uint64, epochs, setups int, traced bool, traceOut string) (result, error) {
	res := result{Metrics: map[string]metricValue{}}
	fail := func(t tally, err error) (result, error) {
		res.Attempted += t.attempted
		res.Failed += max(t.failed, 1)
		return res, err
	}

	u, err := runPass(w, seed, epochs, setups, false)
	if err != nil {
		return fail(u.tally, err)
	}
	res.Attempted, res.Failed = u.tally.attempted, u.tally.failed
	fmt.Fprintf(out, "workload %s seed %d: %d ranks, %d warm-up + %d timed epochs, %.0f user bytes per epoch\n",
		w.name, seed, ranks, warmupEpochs, epochs, u.userBytes)
	values, defs := endToEnd(u), endToEndMetrics
	printMetrics(out, defs, values, "")
	ref := median(u.refs())
	if w.devBPS > 0 {
		fmt.Fprintf(out, "reference loop %.0f us (nominal %.0f us); device-bound, so times are as timed\n",
			ref*1e6, refNominal.Seconds()*1e6)
	} else {
		fmt.Fprintf(out, "reference loop %.0f us (nominal %.0f us); times are scaled by %.3f, epoch by epoch, to the nominal machine\n",
			ref*1e6, refNominal.Seconds()*1e6, w.scale(ref))
	}

	if traced {
		t, err := runPass(w, seed, max(minTracedEpochs, epochs/tracedShare), 1, true)
		if err == nil {
			err = checkTraced(t)
		}
		if err != nil {
			return fail(t.tally, err)
		}
		res.Attempted += t.tally.attempted
		var bud budget
		values, bud = perLayer(u, t)
		defs = perLayerMetrics
		fmt.Fprintf(out, "traced pass: %d timed epochs, spans in %s\n", t.epochs, traceOut)
		omit := ""
		if w.plane == planePlain {
			omit = "stripe." // no such layer; the result line carries zeros
		}
		printMetrics(out, defs, values, omit)
		fmt.Fprintf(out, "share of the traced epoch wall (slowest rank of each phase):\n")
		for i, name := range bud.names {
			fmt.Fprintf(out, "  %-28s %8.2f %%\n", name, 100*bud.shares[i])
		}
		recs := make([]*recorder, len(t.ranks))
		for i, rs := range t.ranks {
			recs[i] = rs.rec
		}
		if err := writeSpans(traceOut, recs); err != nil {
			return fail(tally{}, err)
		}
	}
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fail(tally{}, fmt.Errorf("metric %s is %v", d.name, v))
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	res.Correct = true
	fmt.Fprintf(out, "operations attempted %d, failed %d\n", res.Attempted, res.Failed)
	return res, nil
}

// printMetrics prints the metrics by name and unit, except those whose
// name starts with a non-empty omit.
func printMetrics(out io.Writer, defs []metricDef, values map[string]float64, omit string) {
	for _, d := range defs {
		if omit != "" && strings.HasPrefix(d.name, omit) {
			continue
		}
		fmt.Fprintf(out, "  %-34s %16.6g %s\n", d.name, values[d.name], d.unit)
	}
}

// runSelf runs this program again with args, copies its output to out
// and returns the result it printed last.
func runSelf(args []string, out io.Writer) (result, error) {
	exe, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	var buf bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(out, &buf)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return result{}, err
	}
	lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("last line is not a result: %w", err)
	}
	return res, nil
}

// selfCheck runs a workload twice with the same seed. The counts must
// repeat: write_amp and space_amp exactly, allocation within 0.5 %.
func selfCheck(args []string) error {
	a, err := runSelf(args, os.Stdout)
	if err != nil {
		return err
	}
	b, err := runSelf(args, os.Stdout)
	if err != nil {
		return err
	}
	for _, name := range []string{"write_amp", "space_amp"} {
		if x, y := a.Metrics[name].Value, b.Metrics[name].Value; x != y {
			return fmt.Errorf("selfcheck: %s differs between runs: %v and %v", name, x, y)
		}
	}
	x, y := a.Metrics["alloc_b_per_user_b"].Value, b.Metrics["alloc_b_per_user_b"].Value
	if math.Abs(x-y) > 0.005*math.Min(x, y) {
		return fmt.Errorf("selfcheck: alloc_b_per_user_b differs by more than 0.5 %%: %v and %v", x, y)
	}
	fmt.Printf("selfcheck: write_amp %v and space_amp %v repeat; alloc_b_per_user_b %v and %v\n",
		a.Metrics["write_amp"].Value, a.Metrics["space_amp"].Value, x, y)
	return nil
}
