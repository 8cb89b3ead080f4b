// fastd is the simulation-as-a-service daemon: an HTTP job server over the
// internal/sim engine registry with a bounded queue, a worker pool and a
// content-addressed result cache (see internal/service for the API), which
// can persist across restarts (-cache-dir) and scale out into a sharded
// cluster (-coordinator, see internal/cluster).
//
// Worker / single-node mode:
//
//	fastd -addr :8080 -workers 4 -queue 64 -cache 256 -timeout 10m \
//	      -cache-dir /var/lib/fastd/cache -cache-bytes 1073741824
//
// Warm-start is always on: boot snapshots are captured at
// boot-complete and resumed for any later run sharing the boot prefix,
// stored alongside results in -cache-dir (or a dedicated -snapshot-dir).
// -pprof-addr serves net/http/pprof on a separate listener for profiling
// (off by default).
//
//	fastctl submit -engine fast -params '{"workload":"164.gzip"}' -wait
//
// Coordinator mode (shards the same /v1 API across worker nodes by
// result-cache key; no local simulation):
//
//	fastd -coordinator -addr :9090 -nodes http://h1:8080,http://h2:8080
//
// SIGINT/SIGTERM drains gracefully: the listener stops accepting, queued
// and in-flight jobs finish (bounded by -drain), and the final metrics
// dump is written before exit.
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	_ "net/http/pprof" // handlers on DefaultServeMux, exposed only via -pprof-addr
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/service/diskcache"
)

func main() {
	var (
		addr    = flag.String("addr", ":8080", "listen address")
		workers = flag.Int("workers", 0, "simulation worker-pool size (0 = GOMAXPROCS)")
		queue   = flag.Int("queue", 64, "bounded job-queue depth (full queue answers 429)")
		cache   = flag.Int("cache", 256, "content-addressed result-cache entries (negative = disable)")
		timeout = flag.Duration("timeout", 10*time.Minute, "default per-job deadline (overridable per request via timeout_ms)")
		drain   = flag.Duration("drain", 30*time.Second, "graceful-drain budget on SIGTERM before in-flight jobs are cancelled")
		dump    = flag.String("metrics-dump", "", "write the final Prometheus metrics dump to this file on exit (\"-\" = stderr)")

		cacheDir   = flag.String("cache-dir", "", "disk-backed result store directory (empty = memory only); survives restarts, shareable between nodes")
		cacheBytes = flag.Int64("cache-bytes", 0, "disk store size budget in bytes (0 = unbounded), LRU-evicted")

		snapshotDir = flag.String("snapshot-dir", "", "disk directory for warm-start boot snapshots (empty = share -cache-dir, or memory only without one)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")

		coordinator   = flag.Bool("coordinator", false, "run as a cluster coordinator instead of a worker (requires -nodes)")
		nodes         = flag.String("nodes", "", "comma-separated worker base URLs (coordinator mode)")
		probeInterval = flag.Duration("probe-interval", time.Second, "coordinator health-probe interval")
		stealAfter    = flag.Duration("steal-after", 3*time.Second, "coordinator: steal sweep children still queued after this long")
	)
	flag.Parse()
	log.SetPrefix("fastd: ")
	log.SetFlags(log.LstdFlags | log.Lmsgprefix)

	tel := obs.New()
	if *pprofAddr != "" {
		// The DefaultServeMux carries the pprof handlers via the blank
		// import; a dedicated listener keeps them off the public API port.
		go func() {
			log.Printf("pprof on %s", *pprofAddr)
			log.Printf("pprof: %v", http.ListenAndServe(*pprofAddr, nil))
		}()
	}
	if *coordinator {
		runCoordinator(tel, *addr, *nodes, *probeInterval, *stealAfter, *drain, *dump)
		return
	}

	cfg := service.Config{
		Workers:        *workers,
		QueueDepth:     *queue,
		CacheEntries:   *cache,
		DefaultTimeout: *timeout,
		Telemetry:      tel,
	}
	if *cacheDir != "" {
		store, err := diskcache.New(*cacheDir, *cacheBytes, tel)
		if err != nil {
			log.Fatalf("open disk cache %s: %v", *cacheDir, err)
		}
		cfg.Store = store
		log.Printf("disk cache at %s (%d blobs, %d bytes resident)", *cacheDir, store.Len(), store.Bytes())
	}
	// A dedicated snapshot directory splits the warm-start tier from the
	// result store; without one, snapshots ride cfg.Store (if any).
	if *snapshotDir != "" {
		snaps, err := diskcache.New(*snapshotDir, 0, tel)
		if err != nil {
			log.Fatalf("open snapshot store %s: %v", *snapshotDir, err)
		}
		cfg.Snapshots = snaps
		log.Printf("snapshot store at %s (%d blobs, %d bytes resident)", *snapshotDir, snaps.Len(), snaps.Bytes())
	}
	srv := service.New(cfg)
	log.Printf("listening on %s (workers=%d queue=%d cache=%d timeout=%s)",
		*addr, *workers, *queue, *cache, *timeout)
	serve(*addr, srv.Handler(), *drain, *dump, tel, srv.Shutdown)
}

// runCoordinator is the -coordinator main: the work being drained lives on
// the nodes, so shutdown here only stops the listener and the prober.
func runCoordinator(tel *obs.Telemetry, addr, nodes string, probeInterval, stealAfter, drain time.Duration, dump string) {
	var nodeList []string
	for _, n := range strings.Split(nodes, ",") {
		if n = strings.TrimSpace(n); n != "" {
			nodeList = append(nodeList, n)
		}
	}
	coord, err := cluster.New(cluster.Config{
		Nodes:         nodeList,
		ProbeInterval: probeInterval,
		StealAfter:    stealAfter,
		Telemetry:     tel,
	})
	if err != nil {
		log.Fatalf("coordinator: %v", err)
	}
	log.Printf("coordinating %d nodes on %s (probe=%s steal-after=%s): %s",
		len(nodeList), addr, probeInterval, stealAfter, strings.Join(nodeList, ", "))
	serve(addr, coord.Handler(), drain, dump, tel, func(context.Context) error {
		coord.Close()
		return nil
	})
}

// serve is both modes' one loop: listen on addr until SIGINT/SIGTERM, then
// stop the listener, drain the backend through shutdown within the drain
// budget, and write the final metrics dump.
func serve(addr string, handler http.Handler, drain time.Duration, dump string, tel *obs.Telemetry, shutdown func(context.Context) error) {
	httpSrv := &http.Server{Addr: addr, Handler: handler, ReadHeaderTimeout: 10 * time.Second}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	select {
	case err := <-errc:
		log.Fatalf("listen: %v", err)
	case <-ctx.Done():
	}
	stop() // a second signal kills immediately instead of draining

	log.Printf("signal received, draining (budget %s)", drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := shutdown(drainCtx); err != nil {
		log.Printf("drain expired, in-flight jobs cancelled: %v", err)
	} else {
		log.Printf("drained cleanly")
	}
	if err := flushMetrics(tel, dump); err != nil {
		log.Printf("metrics dump: %v", err)
	}
}

// flushMetrics writes the server-wide registry on the way out, so a
// scrapeless deployment still gets its final counters.
func flushMetrics(tel *obs.Telemetry, dump string) error {
	if dump == "" {
		return nil
	}
	if dump == "-" {
		return tel.Metrics.WritePrometheus(os.Stderr)
	}
	f, err := os.Create(dump)
	if err != nil {
		return err
	}
	werr := tel.Metrics.WritePrometheus(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
