// Command nvmecr-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	nvmecr-bench [-quick] [-trace file] [experiment ...]
//
// With no arguments it runs every experiment (fig1, fig7a-d, fig8a-b,
// fig9strong, fig9weak, tab1, tab2). -quick shrinks scales so the whole
// suite completes in seconds; the default reproduces paper scale (448
// processes, hundreds of GB of simulated checkpoint IO) and takes
// correspondingly longer. -trace appends every experiment's span
// events as JSON Lines to file, for analysis with nvmecr-trace.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"github.com/nvme-cr/nvmecr/internal/harness"
)

func main() {
	quick := flag.Bool("quick", false, "run at reduced scale (seconds instead of minutes)")
	list := flag.Bool("list", false, "list experiment ids and exit")
	trace := flag.String("trace", "", "write span events as JSON Lines to `file` (see nvmecr-trace)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: nvmecr-bench [-quick] [-list] [-trace file] [experiment ...]\n")
		fmt.Fprintf(os.Stderr, "experiments: %s\n", strings.Join(harness.IDs(), " "))
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, id := range harness.IDs() {
			fmt.Println(id)
		}
		return
	}
	opts := harness.Options{Quick: *quick}
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmecr-bench: %v\n", err)
			os.Exit(1)
		}
		defer f.Close()
		opts.Trace = f
	}
	ids := flag.Args()
	if len(ids) == 0 {
		ids = harness.IDs()
	}
	for _, id := range ids {
		start := time.Now()
		tab, err := harness.Run(id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "nvmecr-bench: %s: %v\n", id, err)
			os.Exit(1)
		}
		tab.Print(os.Stdout)
		fmt.Printf("   (%s wall)\n\n", time.Since(start).Round(time.Millisecond))
	}
}
