// Command vcached is the simulation-as-a-service daemon: an HTTP/JSON
// front-end over the experiment harness with a content-addressed result
// cache, singleflight deduplication of concurrent identical requests,
// and admission control.
//
// Usage:
//
//	vcached -addr :8080
//	curl -s -XPOST localhost:8080/run -d '{"workload":"kernel-build","config":"F","scale":0.1}'
//	curl -s -XPOST localhost:8080/batch -d '{"runs":[{"workload":"afs-bench","config":"A"},{"workload":"afs-bench","config":"F"}]}'
//	curl -s localhost:8080/metrics
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: new work is
// refused with 503 while in-flight simulations drain; runs still alive
// after -drain-timeout are cancelled cooperatively.
package main

import (
	"context"
	"errors"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vcache/internal/service"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("vcached: ")
	// A bad flag is one line on stderr, not the flag list; -h prints it.
	flag.CommandLine.Init("vcached", flag.ContinueOnError)
	flag.CommandLine.Usage = func() {}
	addr := flag.String("addr", ":8080", "listen address")
	concurrency := flag.Int("concurrency", 0, "max backing simulations at once (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 64, "max runs waiting for a slot before 429")
	cacheEntries := flag.Int("cache", 512, "result-cache capacity (entries)")
	snapshotPool := flag.Int("snapshot-pool", 0, "warm-boot snapshot pool capacity (machine images; 0 = disabled)")
	timeout := flag.Duration("timeout", 60*time.Second, "default per-request wait deadline")
	runTimeout := flag.Duration("run-timeout", 5*time.Minute, "server-side cap on one simulation")
	maxScale := flag.Float64("max-scale", 0, "reject requests above this scale factor (0 = no cap)")
	maxBatch := flag.Int("max-batch", 0, "max runs per /batch request (0 = default cap)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/pprof/* and /metrics on this address (empty = disabled)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
	enableReplay := flag.Bool("enable-replay", false, "open the /replay endpoint: POST a recorded trace export to re-execute it")
	quiet := flag.Bool("quiet", false, "suppress the structured per-request log")
	if err := flag.CommandLine.Parse(os.Args[1:]); err == flag.ErrHelp {
		flag.PrintDefaults()
		return
	} else if err != nil {
		os.Exit(2)
	}

	// A negative pool size is a misconfiguration, not "disabled": fail
	// loudly instead of silently running without warm boots.
	if *snapshotPool < 0 {
		log.Fatalf("-snapshot-pool must be >= 0 (0 = disabled), got %d", *snapshotPool)
	}

	var logW io.Writer = os.Stderr
	if *quiet {
		logW = nil
	}
	svc := service.New(service.Config{
		MaxConcurrent:  *concurrency,
		MaxQueue:       *queue,
		CacheEntries:   *cacheEntries,
		SnapshotPool:   *snapshotPool,
		DefaultTimeout: *timeout,
		RunTimeout:     *runTimeout,
		MaxScale:       *maxScale,
		MaxBatch:       *maxBatch,
		EnableReplay:   *enableReplay,
		Log:            logW,
	})

	// Both listeners bind before either serves, so an address in use is
	// the one error line. The debug surface lives on its own listener so
	// pprof handlers are never reachable through the public address.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			log.Fatal(err)
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		dmux.Handle("/metrics", svc.MetricsHandler())
		go func() {
			log.Printf("debug surface on %s", dln.Addr())
			if err := http.Serve(dln, dmux); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	srv := &http.Server{Handler: svc.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() {
		log.Printf("listening on %s", ln.Addr())
		errc <- srv.Serve(ln)
	}()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	log.Printf("shutting down: draining in-flight runs (budget %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	drainErr := svc.Shutdown(dctx)
	if err := srv.Shutdown(dctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("http shutdown: %v", err)
	}
	if drainErr != nil {
		log.Fatalf("drain budget exceeded; in-flight runs were cancelled: %v", drainErr)
	}
	log.Printf("drained cleanly")
}
