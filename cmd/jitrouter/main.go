// Command jitrouter fronts a jitd shard cluster: it consistent-hashes
// session IDs over a static shard map and forwards the JSON API to the
// owning shard over pooled keep-alive connections.
//
// Usage:
//
//	jitrouter -cluster-config cluster.json [-addr :8080]
//	          [-probe-interval 1s] [-probe-timeout 2s]
//	          [-forward-timeout 30s] [-down-after 2]
//
// The shard map is JSON:
//
//	{"shards": [
//	  {"name": "s0", "addr": "127.0.0.1:9101", "standby": "127.0.0.1:9201"},
//	  {"name": "s1", "addr": "127.0.0.1:9102", "standby": "127.0.0.1:9202"},
//	  {"name": "s2", "addr": "127.0.0.1:9103", "standby": "127.0.0.1:9203"}
//	]}
//
// Routing: /api/sessions/{id}/... goes to the shard owning {id}
// (rendezvous hashing over shard *names* — addresses can change without
// moving sessions); POST /api/sessions and the read-only catalog endpoints
// round-robin over healthy shards (each shard mints only session IDs it
// owns, so a created session routes back to where it lives). A shard the
// router cannot reach answers an immediate 503 with Retry-After. Idempotent
// reads are retried once on a fresh connection.
//
// Router endpoints (never forwarded):
//
//	GET  /metrics        Prometheus text exposition (per-shard forward
//	                     latency, retries, 503s, health)
//	GET  /admin/map      live shard map with health
//	GET  /admin/owner    ?id=<session-id> -> owning shard
//	POST /admin/reload   re-read -cluster-config and apply it (the failover
//	                     lever: point a dead shard's addr at its promoted
//	                     standby, then reload)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"justintime/internal/cluster"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	configPath := flag.String("cluster-config", "", "shard map JSON file (required)")
	probeInterval := flag.Duration("probe-interval", time.Second, "health probe period per shard")
	probeTimeout := flag.Duration("probe-timeout", 2*time.Second, "health probe timeout")
	forwardTimeout := flag.Duration("forward-timeout", 30*time.Second, "end-to-end bound on one forwarded request")
	downAfter := flag.Int("down-after", 2, "consecutive probe failures that mark a shard down")
	logFormat := flag.String("log-format", "text", "structured log encoding: text or json")
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "text", "":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "jitrouter: unknown -log-format %q (want text or json)\n", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	if *configPath == "" {
		logger.Error("missing required -cluster-config")
		os.Exit(1)
	}
	m, err := cluster.LoadMap(*configPath)
	if err != nil {
		logger.Error("loading shard map failed", "err", err)
		os.Exit(1)
	}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Map:            m,
		ConfigPath:     *configPath,
		ProbeInterval:  *probeInterval,
		ProbeTimeout:   *probeTimeout,
		ForwardTimeout: *forwardTimeout,
		DownAfter:      *downAfter,
	})
	if err != nil {
		logger.Error("building router failed", "err", err)
		os.Exit(1)
	}
	defer rt.Close()

	srv := &http.Server{Addr: *addr, Handler: rt, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("jitrouter listening", "addr", *addr, "shards", len(m.Shards))

	select {
	case err := <-errc:
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	case <-ctx.Done():
		stop()
		logger.Info("signal received; draining")
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			logger.Error("shutdown failed", "err", err)
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			logger.Error("serve failed", "err", err)
		}
		logger.Info("jitrouter stopped")
	}
}
