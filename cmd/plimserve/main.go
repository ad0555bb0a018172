// plimserve exposes a shared, long-lived plim.Engine over HTTP/JSON, so
// many clients reuse one warm process (and one cache directory) instead of
// each paying the full rewrite cost in a fresh CLI invocation:
//
//	plimserve -addr :8080 -cache-dir /var/cache/plim
//
//	curl -s localhost:8080/v1/benchmarks
//	curl -s -X POST localhost:8080/v1/compile \
//	     -d '{"benchmark":"adder","config":"full"}'
//	curl -s -N -X POST -H 'Accept: text/event-stream' \
//	     localhost:8080/v1/compile -d '{"benchmark":"div","config":"full"}'
//	curl -s localhost:8080/metrics
//
// The server admits at most -workers + -queue in-flight computations
// (beyond that: 429 + Retry-After), coalesces identical in-flight requests
// into one computation, runs every flight's work on the engine's shared
// work-stealing scheduler ordered by request deadline, streams per-request
// progress as server-sent events, and exposes Prometheus metrics. SIGTERM
// (or Ctrl-C) drains gracefully: /healthz flips to 503, in-flight requests
// finish (up to -drain-timeout), then the process exits.
//
// Requests with "trace": true receive a span-per-task execution trace in
// the response (plus a Server-Timing header); -debug-addr starts a second
// listener with net/http/pprof under /debug/pprof/ and the ring of the
// slowest traced flights under /debug/trace/last. Logs are structured
// (log/slog, text format, stderr); -log-level adjusts verbosity.
//
// With -cache-dir (default $PLIM_CACHE_DIR) the persistent cache tier is
// shared with the other CLIs, and a periodic janitor (-cache-gc-interval)
// keeps the directory within -cache-max-age / -cache-max-bytes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"plim"
	"plim/internal/cli"
	"plim/internal/diskcache"
	"plim/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address")
		effort      = flag.Int("effort", plim.DefaultEffort, "MIG rewriting cycles (0 = none)")
		shrink      = flag.Int("shrink", 1, "default benchmark datapath shrink")
		workers     = flag.Int("workers", runtime.GOMAXPROCS(0), "engine worker pool (also the in-flight computations counted as running)")
		cacheBudget = flag.Int("cache-budget", plim.DefaultCacheBudget, "byte budget of all in-memory caches together")
		cacheDir    = cli.CacheDirFlag()
		costPath    = flag.String("cost-model", "",
			"JSON instruction cost model pricing every response's cost block (default: built-in)")

		queue      = flag.Int("queue", 0, "in-flight computations beyond -workers (0 = 4×workers); beyond both: 429")
		reqTimeout = flag.Duration("timeout", time.Minute, "default per-request deadline (<0 = none)")
		maxTimeout = flag.Duration("max-timeout", 10*time.Minute, "cap on client-requested deadlines")

		gcInterval = flag.Duration("cache-gc-interval", 0, "disk-cache janitor period (0 = off; needs -cache-dir)")
		gcMaxAge   = flag.Duration("cache-max-age", 0, "janitor: delete disk entries older than this (0 = no age limit)")
		gcMaxBytes = flag.Int64("cache-max-bytes", 0, "janitor: keep the disk cache under this many bytes (0 = no size limit)")

		drainTimeout = flag.Duration("drain-timeout", 10*time.Second, "graceful-shutdown budget for in-flight requests")
		debugAddr    = flag.String("debug-addr", "", "debug listener address serving /debug/pprof/ and /debug/trace/last (empty = off)")
		logLevel     = flag.String("log-level", "info", "log verbosity: debug, info, warn or error")
		verbose      = flag.Bool("v", false, "log every progress event")
	)
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		cli.Fatal(fmt.Errorf("plimserve: bad -log-level %q (want debug, info, warn or error)", *logLevel))
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cm, err := cli.CostModel(*costPath)
	if err != nil {
		cli.Fatal(err)
	}
	var logEvent func(plim.Event) // -v: every progress event as a log record
	if *verbose {
		logEvent = func(ev plim.Event) { logger.Info("progress", "event", plim.FormatEvent(ev)) }
	}
	run := cli.Run{Tool: "plimserve", CacheDir: *cacheDir}
	eng := run.Engine(plim.WithEffort(*effort), plim.WithShrink(*shrink), plim.WithWorkers(*workers),
		plim.WithCacheBudget(*cacheBudget), plim.WithCostModel(cm), plim.WithProgress(logEvent))

	srv := server.New(eng, server.Options{
		QueueDepth:     *queue,
		DefaultTimeout: *reqTimeout,
		MaxTimeout:     *maxTimeout,
		Logger:         logger,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *gcInterval > 0 || *gcMaxAge > 0 || *gcMaxBytes > 0 {
		if *cacheDir == "" {
			cli.Fatal(errors.New("plimserve: the cache janitor flags need -cache-dir"))
		}
		if *gcInterval <= 0 {
			// A budget without a period would be a silently-unenforced
			// limit; default to an hourly sweep instead.
			*gcInterval = time.Hour
			logger.Warn("cache janitor: -cache-gc-interval not set, using default", "interval", *gcInterval)
		}
		go janitor(ctx, logger, *cacheDir, *gcInterval, *gcMaxAge, *gcMaxBytes)
	}

	if *debugAddr != "" {
		// The debug listener is separate on purpose: profiles and retained
		// traces stay off the service port, so the main listener can face a
		// load balancer while /debug binds to localhost only.
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/debug/trace/last", srv.TraceLastHandler())
		dbgSrv := &http.Server{Addr: *debugAddr, Handler: dmux}
		go func() {
			if err := dbgSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Error("debug listener failed", "addr", *debugAddr, "error", err)
			}
		}()
		defer dbgSrv.Close()
		logger.Info("debug listener", "addr", *debugAddr)
	}

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	logger.Info("plimserve listening",
		"addr", *addr,
		"effort", eng.Effort(),
		"shrink", eng.Shrink(),
		"workers", eng.Workers(),
		"cache_dir", eng.PersistentCacheDir())

	select {
	case err := <-errc:
		cli.Fatal(err)
	case <-ctx.Done():
	}

	// Graceful drain: advertise unhealthiness first so load balancers stop
	// routing here, then let in-flight requests finish.
	logger.Info("plimserve draining", "budget", *drainTimeout)
	srv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Error("plimserve drain incomplete", "error", err)
		os.Exit(1)
	}
	// The one-line summary is shared with the other CLIs (and grepped by CI
	// smoke jobs), so it stays a plain stderr line, not a log record.
	if err := run.Finish(eng); err != nil {
		cli.Fatal(err)
	}
	logger.Info("plimserve stopped")
}

// janitor periodically bounds the shared cache directory. It opens its own
// diskcache handle: GC is pure directory hygiene, and concurrent engine
// reads/writes tolerate deletions by design (a deleted entry is a miss).
func janitor(ctx context.Context, logger *slog.Logger, dir string, interval, maxAge time.Duration, maxBytes int64) {
	c, err := diskcache.Open(dir)
	if err != nil {
		logger.Error("cache janitor disabled", "error", err)
		return
	}
	sweep := func() {
		st, err := c.GC(maxAge, maxBytes)
		if err != nil {
			logger.Error("cache gc failed", "error", err)
			return
		}
		if st.Removed > 0 || st.TempsRemoved > 0 {
			logger.Info("cache gc",
				"removed", st.Removed,
				"removed_bytes", st.RemovedBytes,
				"temps_removed", st.TempsRemoved,
				"entries", st.Entries,
				"bytes", st.Bytes)
		}
	}
	// Sweep once up front: a directory that outgrew its budget while the
	// limits were unset must not stay over budget for a whole interval.
	sweep()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		sweep()
	}
}
