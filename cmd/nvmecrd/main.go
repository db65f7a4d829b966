// Command nvmecrd is the standalone TCP NVMe-oF target daemon: the
// storage-node half of the functional remote data plane. It exports one
// or more in-memory namespaces and serves queue pairs until interrupted.
//
// Usage:
//
//	nvmecrd -addr 127.0.0.1:4420 -namespaces 4 -size-mb 256
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"time"

	"github.com/nvme-cr/nvmecr/internal/model"
	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/rebalance"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:4420", "listen address")
	count := flag.Int("namespaces", 2, "number of namespaces to export (NSIDs 1..n)")
	sizeMB := flag.Int64("size-mb", 256, "size of each namespace in MiB")
	latency := flag.Duration("latency", 0, "simulated per-command device latency (e.g. 20us; 0 = none)")
	statsEvery := flag.Duration("stats", 10*time.Second, "stats reporting interval (0 disables)")
	qpStats := flag.Bool("qp-stats", false, "also report per-queue-pair stats each interval")
	admin := flag.String("admin", "", "admin HTTP listen address for /metrics, /healthz, /debug/flight, pprof (empty disables)")
	mirror := flag.String("mirror", "", "comma-separated member target addresses to aggregate as a mirrored striped plane (mirror-head mode; count must be a multiple of -mirror-replicas)")
	mirrorReplicas := flag.Int("mirror-replicas", 2, "replicas per mirror group in -mirror mode")
	mirrorUnitKB := flag.Int64("mirror-unit-kb", 64, "stripe unit in KiB in -mirror mode")
	mirrorJournal := flag.String("mirror-journal", "nvmecr-rebalance.journal", "migration journal path in -mirror mode (interrupted migrations resume or roll back from it on restart)")
	flag.Parse()

	tgt := nvmeof.NewTarget()
	for i := 1; i <= *count; i++ {
		ns := nvmeof.NewMemNamespaceWithModel(*sizeMB*model.MB, *latency, 0)
		if err := tgt.AddNamespace(uint32(i), ns); err != nil {
			log.Fatal(err)
		}
	}
	bound, err := tgt.Listen(*addr)
	if err != nil {
		log.Fatal(err)
	}
	log.Printf("nvmecrd: serving %d namespaces of %d MiB on %s", *count, *sizeMB, bound)

	var head *mirrorHead
	if *mirror != "" {
		head, err = startMirror(tgt.Telemetry(), *mirror, *mirrorReplicas, *mirrorUnitKB, *mirrorJournal)
		if err != nil {
			log.Fatal(err)
		}
		defer head.Close()
		geo := head.plane.Geometry()
		log.Printf("nvmecrd: mirror head over %d members (%d groups x %d replicas, unit %d KiB, %d MiB usable), journal %s",
			head.plane.Children(), geo.Groups(), geo.Replicas, *mirrorUnitKB, head.plane.Size()>>20, *mirrorJournal)
	}
	if *admin != "" {
		var mig *rebalance.Migrator
		if head != nil {
			mig = head.migrator
		}
		adminAddr, err := startAdmin(*admin, tgt, mig)
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("nvmecrd: admin on http://%s (/metrics, /healthz, /debug/flight, /debug/pprof)", adminAddr)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt)
	shutdown := func() {
		fmt.Println()
		snap := tgt.Snapshot()
		log.Printf("nvmecrd: shutting down, draining %d queue pairs", len(snap.QueuePairs))
		tgt.Close() // waits for in-flight commands to complete
		log.Print("nvmecrd: drained")
	}
	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		defer ticker.Stop()
		for {
			select {
			case <-ticker.C:
				snap := tgt.Snapshot()
				log.Printf("nvmecrd: %d queue pairs, %d commands, %d errors, %d MiB in, %d MiB out, p99 %v",
					len(snap.QueuePairs), snap.Commands, snap.Errors,
					snap.BytesIn>>20, snap.BytesOut>>20, snap.Latency.P99)
				if *qpStats {
					for _, qp := range snap.QueuePairs {
						log.Printf("nvmecrd:   qp %d (%s, ns %d): %d commands, %d errors, %d MiB in, %d MiB out",
							qp.ID, qp.Remote, qp.NSID, qp.Commands, qp.Errors, qp.BytesIn>>20, qp.BytesOut>>20)
					}
				}
			case <-stop:
				shutdown()
				return
			}
		}
	}
	<-stop
	shutdown()
}
