// Command ccprofd runs the ccprof pipeline as a crash-safe HTTP job
// service: profiling, advisor and experiment jobs are accepted on a
// bounded queue, executed on the parsim pool with per-job derived seeds,
// journaled durably, and stored content-addressed. SIGTERM drains
// gracefully; a restart on the same -data directory resumes every
// accepted-but-unfinished job and reproduces its artifact byte-for-byte.
//
// Usage:
//
//	ccprofd -data DIR [-addr HOST:PORT] [-queue N] [-workers N]
//	        [-retries N] [-deadline D] [-drain D] [-seed N] [-j N]
//	        [-metrics-addr HOST:PORT]
//
// Exit codes follow the repo convention: 2 for usage errors (caught
// before any work), 1 for runtime failures, 0 for a clean drain.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/ccprofd"
	"repro/internal/obs"
	"repro/internal/parsim"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8347", "HTTP listen address for the job API")
		dataDir     = flag.String("data", "", "data directory for the journal, artifact store and checkpoints (required)")
		queueCap    = flag.Int("queue", 64, "admission queue bound; a full queue rejects jobs with 429")
		workers     = flag.Int("workers", 1, "jobs executed concurrently")
		retries     = flag.Int("retries", 1, "re-attempts per failed job (contains panics and transient faults)")
		deadline    = flag.Duration("deadline", 0, "default per-job attempt deadline (0 = none)")
		drain       = flag.Duration("drain", 10*time.Second, "how long SIGTERM waits for in-flight jobs before cancelling them")
		seed        = flag.Int64("seed", 1, "root seed; per-job seeds derive from it and the job ID")
		jobs        = flag.Int("j", 0, "parsim sweep workers inside advisor jobs (0 = GOMAXPROCS)")
		metricsAddr = flag.String("metrics-addr", "", "serve a second obs-only listener on this address")
	)
	flag.Usage = func() {
		fmt.Fprint(os.Stderr, "usage: ccprofd -data DIR [flags]\nflags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	// Usage errors are caught before any listener or file is touched.
	if flag.NArg() != 0 {
		usageError(fmt.Sprintf("unexpected arguments %v", flag.Args()))
	}
	if *dataDir == "" {
		usageError("-data is required")
	}
	if *queueCap <= 0 {
		usageError(fmt.Sprintf("invalid -queue %d: the admission bound must be positive", *queueCap))
	}
	if *workers <= 0 {
		usageError(fmt.Sprintf("invalid -workers %d: need at least one job worker", *workers))
	}
	if *retries < 0 {
		usageError(fmt.Sprintf("invalid -retries %d: cannot be negative", *retries))
	}
	if *jobs < 0 {
		usageError(fmt.Sprintf("invalid -j %d: worker count cannot be negative", *jobs))
	}
	if *deadline < 0 || *drain <= 0 {
		usageError("invalid -deadline/-drain: deadlines cannot be negative and the drain window must be positive")
	}

	parsim.SetDefaultWorkers(*jobs)

	// The signal handler goes in before the listener opens: from the
	// moment "serving on" is printed a client may SIGTERM us, and a
	// signal that beat the handler would kill the daemon undrained. A
	// signal caught during start-up drains as soon as serving begins.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	d, err := ccprofd.New(ccprofd.Options{
		DataDir:      *dataDir,
		QueueCap:     *queueCap,
		Workers:      *workers,
		Retries:      *retries,
		Deadline:     *deadline,
		DrainTimeout: *drain,
		Seed:         *seed,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	if *metricsAddr != "" {
		maddr, mshutdown, err := obs.Default.ServeNotify(*metricsAddr, func(err error) {
			fmt.Fprintf(os.Stderr, "ccprofd: metrics listener died: %v\n", err)
		})
		if err != nil {
			fatal(err)
		}
		defer mshutdown()
		fmt.Fprintf(os.Stderr, "ccprofd: metrics on http://%s/metrics\n", maddr)
	}

	d.Start()
	srv := &http.Server{Handler: d.Handler()}
	serveErr := make(chan error, 1)
	go func() {
		err := srv.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		serveErr <- err
	}()
	fmt.Fprintf(os.Stderr, "ccprofd: serving on http://%s (data %s)\n", ln.Addr(), *dataDir)

	select {
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
	case <-ctx.Done():
		fmt.Fprintln(os.Stderr, "ccprofd: signal received, draining")
		// Stop admitting first (Drain flips readyz and POST /jobs to
		// refusal), then let in-flight jobs finish, then close the
		// listener. Queued jobs stay journaled for the next start.
		d.Drain()
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		srv.Shutdown(shutCtx)
		cancel()
		if left := d.Unfinished(); left > 0 {
			fmt.Fprintf(os.Stderr, "ccprofd: drained; %d job(s) journaled for resume\n", left)
		} else {
			fmt.Fprintln(os.Stderr, "ccprofd: drained; no jobs pending")
		}
	}
}

// usageError reports a flag/argument problem and exits 2.
func usageError(msg string) {
	fmt.Fprintf(os.Stderr, "ccprofd: %s\n", msg)
	flag.Usage()
	os.Exit(2)
}

// fatal reports a runtime error and exits 1.
func fatal(err error) {
	fmt.Fprintf(os.Stderr, "ccprofd: %v\n", err)
	os.Exit(1)
}
