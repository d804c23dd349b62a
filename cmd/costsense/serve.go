package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"costsense/internal/serve"
)

// registerDebugMetrics mounts h at /debug/metrics on the default mux
// exactly once per process; later calls (a second serve in one test
// binary) swap the backing handler instead of re-registering, which
// would panic the mux.
var (
	debugMetricsOnce sync.Once
	debugMetricsCur  atomic.Pointer[http.Handler]
)

func registerDebugMetrics(h http.Handler) {
	debugMetricsCur.Store(&h)
	debugMetricsOnce.Do(func() {
		http.HandleFunc("GET /debug/metrics", func(w http.ResponseWriter, r *http.Request) {
			(*debugMetricsCur.Load()).ServeHTTP(w, r)
		})
	})
}

// runServe runs `costsense serve`: the persistent experiment service.
// It blocks until the listener fails or the process receives SIGINT or
// SIGTERM; on a signal it stops admitting jobs, drains the queue
// within -drain, and exits 0. A second signal during the drain
// journals failed(reason=killed) for in-flight work (when -journal is
// set) and exits 1 — the next start on the same journal reports the
// kill instead of re-running blind.
//
//costsense:ctx-ok subcommand root: the signal context created below is the process's cancellation source
func runServe(args []string) error {
	fs := flag.NewFlagSet("costsense serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen `address` for the experiment API")
	queueCap := fs.Int("queue", 16, "max queued jobs before submissions get 429 (`n`)")
	cacheMB := fs.Int("cache-mb", 256, "substrate cache budget in `MiB`")
	resultsMB := fs.Int("results-mb", 256, "budget in `MiB` for retained result bodies; older results answer 410 (resubmit to recompute)")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown `deadline` for queued and running jobs")
	journal := fs.String("journal", "", "job journal `path`; enables crash recovery (restart re-runs incomplete jobs)")
	jobTimeout := fs.Duration("job-timeout", 0, "default per-job `deadline` for specs without timeout_ms; 0 = none")
	fs.SetOutput(os.Stderr)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes no positional arguments (got %q)", fs.Args())
	}

	// Two-stage signal handling: the first SIGINT/SIGTERM cancels ctx
	// and starts the drain; a second one during the drain marks
	// in-flight work killed in the journal and exits hard. A plain
	// channel (not NotifyContext's re-armed default handler) so the
	// process gets to journal before dying.
	//costsense:ctx-ok process root: the first signal cancels this context; the pump goroutine below is its source
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigCh := make(chan os.Signal, 2)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sigCh)

	s, err := serve.Open(serve.Config{
		QueueCap:    *queueCap,
		CacheBytes:  int64(*cacheMB) << 20,
		ResultBytes: int64(*resultsMB) << 20,
		JournalPath: *journal,
		JobTimeout:  *jobTimeout,
		// The default mux carries expvar's /debug/vars and (via the
		// blank import in instrument.go) /debug/pprof.
		DebugHandler: http.DefaultServeMux,
		Logger:       serve.NewLogger(os.Stderr),
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	// Signal pump; it lives for the remainder of the process (runServe
	// returning ends the process, and with it the pump).
	go func() {
		first := true
		for range sigCh {
			if first {
				first = false
				cancel()
				continue
			}
			// Second signal mid-drain: record the kill, then die.
			fmt.Fprintln(os.Stderr, "costsense: second signal; killing in-flight jobs")
			s.MarkKilled()
			os.Exit(1)
		}
	}()

	// One registry, both muxes: the API mux serves GET /metrics
	// directly, and the same handler is mounted on the default (debug)
	// mux so the /debug/ surface — and any -http debug listener sharing
	// it — scrapes identical state. Guarded: the default mux panics on
	// duplicate registration and serve can run twice in one test
	// process.
	registerDebugMetrics(s.MetricsHandler())
	s.Start()
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}
	errCh := make(chan error, 1)
	//costsense:ctx-ok terminates when ListenAndServe returns — guaranteed by the Shutdown below; errCh is buffered so the send never parks
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "costsense: serving experiments on http://%s (POST /api/v1/jobs)\n", *addr)
	if *journal != "" {
		fmt.Fprintf(os.Stderr, "costsense: journaling jobs to %s\n", *journal)
	}

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	fmt.Fprintf(os.Stderr, "costsense: signal received; draining jobs (deadline %s)\n", *drain)

	//costsense:ctx-ok drain window: the signal ctx is already cancelled; the deadline must outlive it
	shCtx, shCancel := context.WithTimeout(context.Background(), *drain)
	defer shCancel()
	drainErr := s.Drain(shCtx)
	if err := httpSrv.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "costsense: http shutdown:", err)
		// Graceful shutdown failed (deadline hit with connections still
		// open): force-close them so ListenAndServe below is guaranteed
		// to return.
		if err := httpSrv.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "costsense: http close:", err)
		}
	}
	<-errCh // ListenAndServe has returned ErrServerClosed
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "costsense: drain deadline hit; unfinished jobs were failed")
	} else {
		fmt.Fprintln(os.Stderr, "costsense: drained cleanly")
	}
	return nil
}
