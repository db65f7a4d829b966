// Admin HTTP listener: live metrics, liveness, and profiling for a
// running target. Off by default; enable with -admin host:port. The
// listener binds before serving so a bad address fails fast at startup.
package main

import (
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"github.com/nvme-cr/nvmecr/internal/nvmeof"
	"github.com/nvme-cr/nvmecr/internal/rebalance"
)

// healthzDoc is the structured /healthz response: the target's
// headline counters.
type healthzDoc struct {
	QueuePairs int    `json:"queue_pairs"`
	Commands   uint64 `json:"commands"`
	Errors     uint64 `json:"errors"`
}

// startAdmin serves /metrics (Prometheus text exposition of the
// target's registry), /healthz (the target's headline counters as
// JSON), /debug/flight (the flight recorder's last commands per queue
// pair), /rebalance (migration progress, and POST ?child=N to start a
// move, when -mirror is set), and the standard pprof endpoints on addr.
// It returns the bound address (useful with ":0"). mig may be nil (no
// -mirror): /rebalance answers 404.
func startAdmin(addr string, tgt *nvmeof.Target, mig *rebalance.Migrator) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("admin listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		if err := tgt.Telemetry().WritePrometheus(w); err != nil {
			log.Printf("nvmecrd: /metrics: %v", err)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		snap := tgt.Snapshot()
		doc := healthzDoc{
			QueuePairs: len(snap.QueuePairs),
			Commands:   snap.Commands,
			Errors:     snap.Errors,
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			log.Printf("nvmecrd: /healthz: %v", err)
		}
	})
	if mig != nil {
		mux.Handle("/rebalance", mig.Handler())
	}
	mux.HandleFunc("/debug/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if q := r.URL.Query().Get("qp"); q != "" {
			qp, err := strconv.Atoi(q)
			if err != nil {
				http.Error(w, "bad qp: "+err.Error(), http.StatusBadRequest)
				return
			}
			if err := enc.Encode(tgt.Flight().QueuePair(qp)); err != nil {
				log.Printf("nvmecrd: /debug/flight: %v", err)
			}
			return
		}
		if err := enc.Encode(tgt.Flight().Snapshot()); err != nil {
			log.Printf("nvmecrd: /debug/flight: %v", err)
		}
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("nvmecrd: admin server: %v", err)
		}
	}()
	return ln.Addr().String(), nil
}
