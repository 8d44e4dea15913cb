package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"syscall"

	"gomd/internal/results"
)

// check is one correctness check of a run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// attrRow is one row of a workload's attribution table: a layer's share
// of the timed wall.
type attrRow struct {
	Name  string  `json:"name"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share"` // percent of wall
	// Of marks a row that is a part of the row above ("of which mpi
	// wait") and is left out of the sum.
	Of bool `json:"of,omitempty"`
}

// hostRecord goes in every result: wall-clock numbers mean nothing
// without the machine they were taken on.
type hostRecord struct {
	Fingerprint string `json:"fingerprint"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GoVersion   string `json:"go_version"`
	GitSHA      string `json:"git_sha"`
	// OutFS is the filesystem type checkpoint and journal files were
	// written to (fsync on tmpfs costs nothing and would flatter the
	// durability layer).
	OutFS string `json:"out_fs"`
}

func hostInfo(outDir string) hostRecord {
	return hostRecord{
		Fingerprint: results.Fingerprint(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GoVersion:   runtime.Version(),
		GitSHA:      results.GitSHA("."),
		OutFS:       fsType(outDir),
	}
}

// fsType names the filesystem holding dir from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0x01021994:
		return "tmpfs"
	case 0xef53:
		return "ext4"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x794c7630:
		return "overlayfs"
	default:
		return fmt.Sprintf("0x%x", uint32(st.Type))
	}
}

// runResult is everything one run of one workload produced. The last
// line a contract-mode run prints is cut from it; the full pass keeps
// the whole record in results.json.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	// Counts are the per-layer metrics of unit "count" that every run
	// computes, traced or not, over a fixed step range; -repeat checks
	// that they repeat exactly.
	Counts map[string]float64 `json:"counts,omitempty"`
	// Samples is the sample count behind each median or percentile.
	Samples     map[string]int `json:"samples"`
	Info        map[string]any `json:"info"`
	Attribution []attrRow      `json:"attribution,omitempty"`
	Spans       []span         `json:"spans,omitempty"`
	Notes       []string       `json:"notes,omitempty"`
	Host        hostRecord     `json:"host"`
}

func newResult(w workloadSpec, o runOpts) *runResult {
	return &runResult{
		Workload: w.name, Seed: o.seed, Seconds: o.seconds, Traced: o.rec != nil,
		EndToEnd: map[string]float64{}, Samples: map[string]int{}, Info: map[string]any{},
		Host: hostInfo(o.dir),
	}
}

func (r *runResult) check(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

func (r *runResult) note(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// correct reports whether every check passed and no operation failed.
func (r *runResult) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

func (r *runResult) printChecks(w io.Writer) {
	for _, c := range r.Checks {
		mark := "ok  "
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(w, "  check %s %-28s %s\n", mark, c.Name, c.Detail)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// maxRSSMB is the process's peak resident set, which is why the full
// pass re-execs itself per workload.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
