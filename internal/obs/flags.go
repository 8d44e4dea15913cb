package obs

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"gomd/internal/trace"
)

// Flags is the observability flag bundle of mdrun and mdbench: Register
// declares the flags, Open starts what they ask for, Close shuts it down
// and writes the end-of-run files — in one place, so an error exit
// cannot skip the metrics shutdown or the log close.
type Flags struct {
	TracePath, MetricsPath, MetricsAddr, PprofAddr, LogPath string
	HangTimeout                                             time.Duration
	FlightPath                                              string
	FlightDepth                                             int

	// Set by Open; each stays nil (and nil-safe) when its flag is unset.
	Tracer  *Tracer
	Metrics *Registry
	Log     *trace.Logger

	cmd     string
	ms      *MetricsServer
	logFile *os.File
}

// Register declares -trace, -metrics, -metrics-addr, -pprof-addr, -log
// and -hang-timeout on fs.
func (f *Flags) Register(fs *flag.FlagSet) {
	f.cmd = filepath.Base(fs.Name())
	fs.StringVar(&f.TracePath, "trace", "", "write a per-rank Chrome trace-event timeline (Perfetto) to this file")
	fs.StringVar(&f.MetricsPath, "metrics", "", "write an engine metrics JSON dump to this file")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve live OpenMetrics on this address (e.g. :9100; /metrics and /metrics.json)")
	fs.StringVar(&f.PprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. :6060)")
	fs.StringVar(&f.LogPath, "log", "", "write a JSONL data log (run summary, measurements, grid cells, recoveries); a lost record fails the run")
	fs.DurationVar(&f.HangTimeout, "hang-timeout", 0, "abort (and within -retries recover) ranks making no progress for this long, with a parked-primitive diagnosis (0 = off)")
}

// RegisterFlight declares -flight and -flight-depth (mdrun only).
func (f *Flags) RegisterFlight(fs *flag.FlagSet) {
	fs.StringVar(&f.FlightPath, "flight", "", "arm the crash flight recorder; rank failures/hangs/guardrail trips dump the last steps as JSONL to this path")
	fs.IntVar(&f.FlightDepth, "flight-depth", 0, "flight-recorder steps retained per rank (0 = 256)")
}

// Open starts the pprof and metrics servers and creates the tracer, the
// registry and the data log the flags ask for, announcing bound
// addresses on stderr. On error nothing is left open.
func (f *Flags) Open(stderr io.Writer) error {
	if f.PprofAddr != "" {
		addr, err := ServePprof(f.PprofAddr)
		if err != nil {
			return fmt.Errorf("pprof: %w", err)
		}
		fmt.Fprintf(stderr, "# pprof listening on http://%s/debug/pprof/\n", addr)
	}
	if f.TracePath != "" {
		f.Tracer = NewTracer(0) // rank handles grow on demand
	}
	if f.MetricsPath != "" || f.MetricsAddr != "" {
		f.Metrics = NewRegistry()
	}
	if f.LogPath != "" {
		lf, err := os.Create(f.LogPath)
		if err != nil {
			return err
		}
		f.logFile, f.Log = lf, trace.New(lf)
	}
	if f.MetricsAddr != "" {
		ms, err := Serve(f.MetricsAddr, f.Metrics)
		if err != nil {
			f.logFile.Close() // nil-safe
			return err
		}
		f.ms = ms
		fmt.Fprintf(stderr, "# metrics listening on http://%s/metrics\n", ms.Addr())
	}
	return nil
}

// Close shuts the metrics server down (2 s grace for in-flight scrapes;
// a failure is only warned about), writes the trace and metrics files,
// and closes the data log. A failed write and an incomplete data log are
// errors: silent loss would poison later analysis. Call once.
func (f *Flags) Close(stderr io.Writer) error {
	if err := f.ms.ShutdownTimeout(2 * time.Second); err != nil {
		fmt.Fprintf(stderr, "%s: metrics shutdown: %v\n", f.cmd, err)
	}
	err := WriteFiles(f.Tracer, f.Metrics, f.TracePath, f.MetricsPath)
	logErr := f.Log.Err()
	if f.logFile != nil {
		if cerr := f.logFile.Close(); logErr == nil {
			logErr = cerr
		}
	}
	if logErr != nil {
		err = errors.Join(err, fmt.Errorf("data log incomplete: %w", logErr))
	}
	return err
}
