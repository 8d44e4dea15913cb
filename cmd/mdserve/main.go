// Command mdserve runs the simulation service: a long-running HTTP
// daemon that accepts jobs (benchmark workloads or LAMMPS-style
// scripts), queues them through a write-ahead journal, and runs many
// supervised worlds concurrently under a shared slot budget with
// per-tenant quotas.
//
// Durability: every job state transition is journaled and fsync'd
// before it is acknowledged, and checkpointed jobs write rotating
// restart generations under -data. If the daemon crashes, restarting
// it replays the journal: finished jobs keep their results, queued
// jobs are still queued, and jobs that were mid-run resume from their
// newest valid checkpoint generation — bit-identically to a run that
// was never interrupted.
//
// Shutdown: SIGTERM/SIGINT starts a graceful drain — admission stops
// (503), running jobs advance to their next checkpoint boundary and
// park, the journal is flushed, and the daemon exits 0. A second
// signal kills it the hard way (which the journal also survives).
//
// Usage:
//
//	mdserve -addr :8900 -data ./serve-data -slot-budget 8
//	curl -s localhost:8900/api/v1/jobs -d '{"workload":"lj","atoms":4000,"steps":200,"checkpoint_every":50}'
//	curl -s localhost:8900/api/v1/jobs/j-0
//	curl -N localhost:8900/api/v1/jobs/j-0/events
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

	"gomd/internal/fault"
	"gomd/internal/obs"
	"gomd/internal/serve"
)

func main() {
	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr, stop))
}

// run is the daemon with its process boundary passed in: exit 0 after a
// drain, 1 on a runtime failure, 2 on a usage error (reported before
// anything is opened). A value on stop starts the drain; main feeds it
// SIGINT and SIGTERM. Everything the daemon prints goes to stderr;
// stdout is there for the run() shape every command shares.
func run(args []string, stdout, stderr io.Writer, stop chan os.Signal) int {
	fs := flag.NewFlagSet("mdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8900", "HTTP listen address (host:port; port 0 picks a free one)")
		addrFile  = fs.String("addr-file", "", "write the bound address to this file once listening (for scripts using port 0)")
		dataDir   = fs.String("data", "serve-data", "directory for the journal, checkpoints, and frame logs")
		maxQueue  = fs.Int("max-queue", 64, "max jobs admitted but not finished, all tenants (0 = unlimited)")
		maxQueueT = fs.Int("max-queue-tenant", 16, "max pending jobs per tenant (0 = unlimited)")
		slots     = fs.Int("slot-budget", 8, "rank x worker slots running concurrently (0 = unlimited)")
		slotsT    = fs.Int("max-slots-tenant", 0, "max concurrently running slots per tenant (0 = unlimited)")
		slotsJ    = fs.Int("max-slots-job", 0, "reject jobs larger than this many slots (0 = unlimited)")
		drainTO   = fs.Duration("drain-timeout", 60*time.Second, "bound on the graceful drain (checkpoint boundary runs)")
		faultSpec = fs.String("fault", "", "daemon-level fault drills, e.g. kill-daemon:step=100 or tear-journal:append=3")
		seed      = fs.Uint64("seed", 42, "seed for fault-drill randomness")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var inj *fault.Injector
	if *faultSpec != "" {
		var err error
		if inj, err = fault.Parse(*faultSpec, *seed); err != nil {
			fmt.Fprintf(stderr, "mdserve: %v\n", err)
			return 2
		}
	}

	metrics := obs.NewRegistry()
	srv := &serve.Server{
		DataDir: *dataDir,
		Limits: serve.Limits{
			MaxQueue:          *maxQueue,
			MaxQueuePerTenant: *maxQueueT,
			SlotBudget:        *slots,
			MaxSlotsPerTenant: *slotsT,
			MaxSlotsPerJob:    *slotsJ,
		},
		Metrics: metrics,
		Fault:   inj,
		// A kill-daemon drill is a real crash: exit without drain, without
		// journal flushes, without checkpoint-boundary runs. 137 mirrors a
		// SIGKILLed process.
		OnDaemonKill: func() {
			fmt.Fprintln(stderr, "mdserve: kill-daemon drill fired; dying hard")
			os.Exit(137)
		},
	}
	// Bind first: a daemon that cannot serve exits before its journal is
	// replayed and any interrupted job resumes.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(stderr, "mdserve: %v\n", err)
		return 1
	}
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(ln.Addr().String()), 0o644); err != nil {
			ln.Close()
			fmt.Fprintf(stderr, "mdserve: %v\n", err)
			return 1
		}
	}
	if err := srv.Start(); err != nil {
		ln.Close()
		fmt.Fprintf(stderr, "mdserve: %v\n", err)
		return 1
	}
	hs := &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 5 * time.Second}
	httpDone := make(chan error, 1)
	go func() { httpDone <- hs.Serve(ln) }()
	fmt.Fprintf(stderr, "# mdserve listening on http://%s/api/v1/jobs (data: %s)\n", ln.Addr(), *dataDir)

	select {
	case sig := <-stop:
		fmt.Fprintf(stderr, "# mdserve: %v: draining (checkpointing running jobs)\n", sig)
		signal.Stop(stop) // a second signal kills us the default way
	case err := <-httpDone:
		fmt.Fprintf(stderr, "mdserve: http server: %v\n", err)
		return 1
	}

	code := 0
	if err := srv.Drain(*drainTO); err != nil {
		fmt.Fprintf(stderr, "mdserve: %v\n", err)
		code = 1
	}
	// Drain the HTTP side after the scheduler: in-flight status scrapes
	// finish against final state, but SSE tails of parked jobs would
	// hold Shutdown open forever, so a deadline bounds it and the
	// fallback hard-closes the stragglers.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	if err := hs.Shutdown(ctx); err != nil {
		hs.Close()
	}
	cancel()
	if err := srv.Close(); err != nil {
		fmt.Fprintf(stderr, "mdserve: closing journal: %v\n", err)
		code = 1
	}
	fmt.Fprintf(stderr, "# mdserve: drained, journal flushed, exiting %d\n", code)
	return code
}
