// Command selfishmacd is the simulation job daemon: an HTTP/JSON front
// end (internal/service) over the repository's replication and experiment
// machinery. It exists so long parameter sweeps can run server-side with
// backpressure, per-job deadlines, cancellation and crash isolation
// instead of as fire-and-forget CLI invocations.
//
// Signals follow the two-stage convention used across this repo's
// binaries: the first SIGINT/SIGTERM starts a graceful drain (intake
// stops, running jobs finish under the drain timeout, HTTP stays up so
// clients can collect results), a second signal hard-exits.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"selfishmac/internal/service"
)

// osExit is swapped out by the smoke test; the second signal must not
// kill the test process.
var osExit = os.Exit

func main() {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sigs, os.Stdout, os.Stderr, nil); err != nil {
		fmt.Fprintln(os.Stderr, "selfishmacd:", err)
		osExit(1)
	}
}

// run is the whole daemon, factored for in-process testing: the smoke
// test injects its own signal channel and learns the bound address via
// onReady (so -addr may be :0).
func run(args []string, sigs <-chan os.Signal, stdout, stderr io.Writer, onReady func(addr string)) error {
	fs := flag.NewFlagSet("selfishmacd", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The flag defaults are the service's own defaults, except -workers,
	// whose 0 lets the service pick GOMAXPROCS.
	var cfg service.Config
	cfg.ApplyDefaults()
	addr := fs.String("addr", "127.0.0.1:8377", "HTTP listen address (host:port, port 0 picks a free port)")
	fs.IntVar(&cfg.QueueCap, "queue-cap", cfg.QueueCap, "max queued jobs before submissions get 429")
	fs.IntVar(&cfg.Workers, "workers", 0, "concurrent jobs (0 = GOMAXPROCS)")
	fs.DurationVar(&cfg.DefaultJobTimeout, "job-timeout", cfg.DefaultJobTimeout, "default per-job deadline")
	fs.DurationVar(&cfg.MaxJobTimeout, "max-job-timeout", cfg.MaxJobTimeout, "largest per-job deadline a submission may request")
	fs.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "how long shutdown waits for running jobs before hard-cancelling")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}

	srv, err := service.New(cfg)
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv.Start()
	httpSrv := &http.Server{Handler: srv.Handler()}
	fmt.Fprintf(stdout, "selfishmacd: listening on http://%s (%d workers, queue %d)\n",
		ln.Addr(), srv.Config().Workers, srv.Config().QueueCap)
	if onReady != nil {
		onReady(ln.Addr().String())
	}

	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case err := <-serveErr:
		return fmt.Errorf("http server: %w", err)
	case sig := <-sigs:
		fmt.Fprintf(stderr, "selfishmacd: %v — draining jobs, finishing in-flight requests (signal again to force exit)\n", sig)
	}
	go func() {
		<-sigs
		fmt.Fprintln(stderr, "selfishmacd: second signal — exiting now")
		osExit(130)
	}()

	// Drain the job service first so /readyz flips to 503 and clients can
	// still collect results over HTTP while running jobs wind down; only
	// then stop the HTTP server.
	ctx, cancel := context.WithTimeout(context.Background(), srv.Config().DrainTimeout+10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "selfishmacd: drained, shut down cleanly")
	return nil
}
