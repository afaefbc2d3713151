// Command shotgun-server serves the experiment harness over HTTP:
// clients POST batches of simulation configs or multi-core scenarios,
// poll results by content key, and render any of the paper's
// tables/figures on demand. Results persist in an on-disk store, so a
// restarted server answers previously computed configurations without
// re-simulating.
//
// The same binary is every node of a scenario farm:
//
//   - default: single node — accept, simulate locally, serve.
//   - -coordinator: own the job table and the store, but lease every
//     simulation to -join workers over /v1/lease//v1/heartbeat/
//     /v1/complete instead of running it here. Leases expire when a
//     worker stops heartbeating and the job is requeued, so worker
//     death costs latency, never results. This node's server persists
//     every pushed result.
//   - -join <url>: be a worker for the coordinator at url — an endless
//     lease → simulate → push loop; no listener, no store and no memo
//     (records land in the coordinator's store). A worker reads only
//     -join, -worker-id and -parallel and refuses every other flag; it
//     sends the coordinator's API key from SHOTGUN_API_KEY.
//
// The process shuts down gracefully: SIGINT/SIGTERM stop the listener,
// in-flight HTTP requests get a deadline to finish, and the simulation
// backend stops (local pool: finishes in-flight work; worker: finishes
// and pushes its current job), so no accepted work is lost silently.
//
// Auth: -api-key (or the SHOTGUN_API_KEY environment variable, which
// keeps the key out of argv; the flag wins when both are set) makes
// every request except /healthz, /v1/version and /metrics present
// "Authorization: Bearer <key>", the coordinator's /v1/lease,
// /v1/heartbeat and /v1/complete included. Accepted jobs wait in one
// FIFO; -max-queue bounds the jobs not yet running (past it the server
// sheds with 503 + Retry-After). -log picks the structured
// access/lifecycle log format. See docs/FARM.md for the full
// operations guide.
//
// Usage:
//
//	shotgun-server -addr :8080 -store ./shotgun-store           # full scale, single node
//	shotgun-server -scale quick -parallel 4                     # smoke scale
//	shotgun-server -store ./s -store-max-bytes 1000000000       # prune to ~1GB on start
//	shotgun-server -shutdown-timeout 30s                        # drain deadline
//	shotgun-server -api-key "$KEY" -max-queue 10000             # keyed farm, bounded backlog
//	shotgun-server -log json                                    # JSON access logs
//	shotgun-server -coordinator -store ./s -lease-ttl 30s       # cluster front-end
//	shotgun-server -join http://coord:8080 -parallel 8          # simulation worker
//	shotgun-server -join http://coord:8080 -worker-id rack3-a   # named worker
//	SHOTGUN_API_KEY="$KEY" shotgun-server -join http://coord:8080  # worker of a keyed farm
//
// Example session (drop the Authorization header when auth is off):
//
//	curl -s localhost:8080/v1/version
//	curl -s -X POST localhost:8080/v1/scenarios -H "Authorization: Bearer $KEY" \
//	    -d '{"scenarios":[{"Cores":[{"Workload":"Oracle","Mechanism":"shotgun"}]}]}'
//	curl -s -X POST localhost:8080/v1/scenarios -H "Authorization: Bearer $KEY" \
//	    -d '{"scenarios":[{"Cores":[{"Workload":"Oracle","Mechanism":"shotgun"},{"Workload":"DB2","Mechanism":"fdip"}]}]}'
//	curl -s -H "Authorization: Bearer $KEY" localhost:8080/v1/scenarios/<key>
//	curl -s -H "Authorization: Bearer $KEY" localhost:8080/v1/experiments/fig7?format=csv
//	curl -s -N -X POST --data-binary @specs/fig7.json -H 'Accept: text/event-stream' \
//	    -H "Authorization: Bearer $KEY" 'localhost:8080/v1/sweeps?format=text'
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/cluster                            # coordinator only
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"
	"unicode"

	"shotgun/internal/dispatch"
	"shotgun/internal/harness"
	"shotgun/internal/server"
	"shotgun/internal/store"
)

// runWorker is the -join path: no listener, no store — just a lease →
// simulate → push loop against the coordinator until the signal
// context cancels (the in-flight job finishes and is pushed first).
func runWorker(ctx context.Context, opts options, stdout, stderr io.Writer) int {
	w, err := dispatch.NewWorker(dispatch.WorkerConfig{
		Coordinator: opts.join,
		ID:          opts.workerID,
		APIKey:      opts.apiKey,
		Concurrency: opts.parallel,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stdout, format+"\n", args...)
		},
	})
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := w.Run(ctx); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "worker %s: shutdown complete\n", w.ID())
	return 0
}

func main() {
	// Graceful shutdown: the first SIGINT/SIGTERM cancels the context
	// and starts the drain; a second signal kills the process the
	// default way (signal.NotifyContext unregisters on cancel).
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// errPrinted marks errors the flag package already reported to stderr.
var errPrinted = errors.New("flag parse error")

// apiKeyEnv carries the farm's API key, so it can reach the process
// without touching argv. It is the only way a -join worker gets it.
const apiKeyEnv = "SHOTGUN_API_KEY"

// newLogger builds the structured logger behind -log.
func newLogger(format string, stdout io.Writer) *slog.Logger {
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(stdout, nil))
	case "json":
		return slog.New(slog.NewJSONHandler(stdout, nil))
	default:
		return nil // server.New falls back to a discard logger
	}
}

// options is the validated flag set.
type options struct {
	addr            string
	scale           string
	parallel        int
	storeDir        string
	storeMaxBytes   int64
	maxQueue        int
	apiKey          string
	logFormat       string
	shutdownTimeout time.Duration
	coordinator     bool
	leaseTTL        time.Duration
	join            string
	workerID        string
}

// parseOptions parses and validates flags; all validation errors are
// caught here, before any server state exists.
func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("shotgun-server", flag.ContinueOnError)
	fs.SetOutput(stderr)
	opts := options{}
	fs.StringVar(&opts.addr, "addr", ":8080", "listen address")
	fs.StringVar(&opts.scale, "scale", "full", "simulation scale: quick or full")
	fs.IntVar(&opts.parallel, "parallel", runtime.GOMAXPROCS(0), "simulation worker count")
	fs.StringVar(&opts.storeDir, "store", "", "persistent result store directory (empty: in-memory only)")
	fs.Int64Var(&opts.storeMaxBytes, "store-max-bytes", 0,
		"prune the store's oldest records down to this many bytes on start (0: keep everything)")
	fs.IntVar(&opts.maxQueue, "max-queue", 0,
		"bound on accepted jobs not yet running; past it submissions shed with 503 + Retry-After (0: unlimited)")
	fs.StringVar(&opts.apiKey, "api-key", "",
		"API key every route but /healthz, /v1/version and /metrics requires (default $SHOTGUN_API_KEY; empty: auth off)")
	fs.StringVar(&opts.logFormat, "log", "off", "structured request log format: off, text or json")
	fs.DurationVar(&opts.shutdownTimeout, "shutdown-timeout", 10*time.Second,
		"deadline for in-flight HTTP requests on SIGINT/SIGTERM")
	fs.BoolVar(&opts.coordinator, "coordinator", false,
		"lease simulations to -join workers instead of running them in this process")
	fs.DurationVar(&opts.leaseTTL, "lease-ttl", dispatch.DefaultLeaseTTL,
		"worker heartbeat deadline before a leased job is requeued (coordinator mode)")
	fs.StringVar(&opts.join, "join", "",
		"coordinator URL to join as a simulation worker")
	fs.StringVar(&opts.workerID, "worker-id", "",
		"worker name in leases (default hostname-pid; worker mode)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return options{}, err
		}
		return options{}, errPrinted
	}
	if opts.scale != "quick" && opts.scale != "full" {
		return options{}, fmt.Errorf("-scale must be quick or full (got %q)", opts.scale)
	}
	if opts.parallel <= 0 {
		return options{}, fmt.Errorf("-parallel must be positive (got %d)", opts.parallel)
	}
	if opts.storeMaxBytes < 0 {
		return options{}, fmt.Errorf("-store-max-bytes must be non-negative (got %d)", opts.storeMaxBytes)
	}
	if opts.maxQueue < 0 {
		return options{}, fmt.Errorf("-max-queue must be non-negative (got %d)", opts.maxQueue)
	}
	switch opts.logFormat {
	case "off", "text", "json":
	default:
		return options{}, fmt.Errorf("-log must be off, text or json (got %q)", opts.logFormat)
	}
	if opts.storeMaxBytes > 0 && opts.storeDir == "" {
		return options{}, fmt.Errorf("-store-max-bytes requires -store")
	}
	if opts.shutdownTimeout <= 0 {
		return options{}, fmt.Errorf("-shutdown-timeout must be positive (got %v)", opts.shutdownTimeout)
	}
	if opts.leaseTTL <= 0 {
		return options{}, fmt.Errorf("-lease-ttl must be positive (got %v)", opts.leaseTTL)
	}
	if opts.join != "" {
		if opts.coordinator {
			return options{}, fmt.Errorf("-join and -coordinator are mutually exclusive (a node is a worker or a coordinator)")
		}
		// A worker reads only -join, -worker-id and -parallel: it keeps
		// no store, serves no API and simulates at the coordinator's
		// scale, so any other flag would be silently ignored and is
		// refused by name.
		var ignored string
		fs.Visit(func(f *flag.Flag) {
			if ignored == "" && f.Name != "join" && f.Name != "worker-id" && f.Name != "parallel" {
				ignored = f.Name
			}
		})
		if ignored != "" {
			return options{}, fmt.Errorf("-join workers read only -join, -worker-id and -parallel; drop -%s", ignored)
		}
		if strings.Trim(opts.join, " ,") == "" {
			return options{}, fmt.Errorf("-join must name at least one coordinator URL")
		}
		if strings.Contains(opts.join, ",") {
			return options{}, fmt.Errorf("-join takes one coordinator URL: the comma-separated failover list " +
				"was removed together with -standby, so give each worker a single coordinator")
		}
		opts.join = strings.TrimSpace(opts.join)
	}
	if opts.apiKey == "" {
		opts.apiKey = os.Getenv(apiKeyEnv)
	}
	if strings.TrimSpace(opts.apiKey) != opts.apiKey || strings.ContainsFunc(opts.apiKey, unicode.IsControl) {
		return options{}, fmt.Errorf("the API key must not carry control characters or surrounding spaces " +
			"(an HTTP header cannot deliver them)")
	}
	if opts.workerID != "" && opts.join == "" {
		return options{}, fmt.Errorf("-worker-id requires -join")
	}
	return opts, nil
}

// run serves until ctx is canceled (SIGINT/SIGTERM in production; the
// test harness cancels directly), then drains: listener closed, in-
// flight requests given the shutdown deadline, worker pool drained.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	opts, err := parseOptions(args, stderr)
	if err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0 // -h/-help is a successful exit, like flag.ExitOnError
		}
		if !errors.Is(err, errPrinted) {
			fmt.Fprintln(stderr, err)
		}
		return 2
	}

	if opts.join != "" {
		return runWorker(ctx, opts, stdout, stderr)
	}
	scale := harness.FullScale()
	if opts.scale == "quick" {
		scale = harness.QuickScale()
	}
	cfg := server.Config{
		Scale:     scale,
		ScaleName: opts.scale,
		Workers:   opts.parallel,
		MaxQueue:  opts.maxQueue,
		APIKey:    opts.apiKey,
		Logger:    newLogger(opts.logFormat, stdout),
	}
	if opts.storeDir != "" {
		st, err := store.Open(opts.storeDir)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if opts.storeMaxBytes > 0 {
			dropped, err := st.Prune(opts.storeMaxBytes)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 1
			}
			if dropped > 0 {
				fmt.Fprintf(stdout, "store: pruned %d oldest records to fit %d bytes\n",
					dropped, opts.storeMaxBytes)
			}
		}
		cfg.Store = st
		fmt.Fprintf(stdout, "store: %s (%d records)\n", st.Dir(), st.Len())
	}
	// Coordinator mode swaps the local worker pool for a lease table:
	// accepted jobs wait for -join workers instead of simulating here.
	var coord *dispatch.Coordinator
	if opts.coordinator {
		cfg.NewExecutor = func(_ *harness.Runner, sink dispatch.Sink) dispatch.Executor {
			coord = dispatch.NewCoordinator(dispatch.CoordinatorConfig{
				LeaseTTL: opts.leaseTTL,
				Sink:     sink,
			})
			return coord
		}
		// server.New runs NewExecutor synchronously, so coord is set
		// before the first /metrics scrape can fire.
		cfg.ClusterStats = func() dispatch.CoordinatorStats { return coord.Stats() }
	}
	// The server mounts the coordinator's lease routes behind its API
	// key, beside the public API.
	srv := server.New(cfg)

	// Listen before announcing, so "listening on" is never a lie and
	// tests can bind :0 and read the chosen port.
	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		srv.Close()
		fmt.Fprintln(stderr, err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	mode := "single-node"
	if opts.coordinator {
		mode = fmt.Sprintf("coordinator, lease TTL %v", opts.leaseTTL)
	}
	auth := "auth off"
	if opts.apiKey != "" {
		auth = "auth on"
	}
	fmt.Fprintf(stdout, "shotgun-server listening on %s (scale %s, %s, %s)\n", ln.Addr(), opts.scale, mode, auth)

	select {
	case err := <-serveErr:
		// The listener died under us: finish in-flight simulations,
		// abandon the rest, and fail.
		srv.Shutdown()
		fmt.Fprintln(stderr, err)
		return 1
	case <-ctx.Done():
	}

	fmt.Fprintf(stdout, "shutting down: draining requests (up to %v) and the worker pool\n", opts.shutdownTimeout)
	// Stop accepting work BEFORE draining HTTP: submissions still in
	// flight get an honest "shutting down" 503 instead of a 202 for
	// work the drain below would abandon.
	srv.RejectNew()
	sctx, cancel := context.WithTimeout(context.Background(), opts.shutdownTimeout)
	defer cancel()
	code := 0
	if err := hs.Shutdown(sctx); err != nil {
		fmt.Fprintln(stderr, err)
		code = 1
	}
	// Abandon still-queued simulations (a full-scale queue can hold
	// hours of work; with a store everything completed is kept and a
	// resubmit after restart dedups onto it) — but let in-flight ones
	// finish so no result is half-computed.
	srv.Shutdown()
	fmt.Fprintln(stdout, "shutdown complete")
	return code
}
