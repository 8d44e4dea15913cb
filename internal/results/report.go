package results

import (
	"encoding/json"
	"fmt"
	"os"
)

// KernelRow is one kernel × worker-count timing in a BENCH_kernels.json
// report (the kbench output format, shared here so kbench writes it,
// benchgate reads it, and the trajectory store ingests it without three
// copies of the schema).
type KernelRow struct {
	Kernel     string  `json:"kernel"`
	Workers    int     `json:"workers"`
	Iters      int     `json:"iters"`
	NsPerOp    int64   `json:"ns_per_op"`
	SpeedupVs1 float64 `json:"speedup_vs_1"`
	// Modeled arithmetic cost of one kernel invocation (internal/flops
	// priced over the measured operation counts).
	Flops float64 `json:"flops"`
	Bytes float64 `json:"bytes"`
	AI    float64 `json:"arithmetic_intensity"`
	// Gflops is the achieved rate Flops/NsPerOp (host-dependent).
	Gflops float64 `json:"gflops"`
}

// KernelReport is the BENCH_kernels.json document.
type KernelReport struct {
	Workloads []string    `json:"workloads"`
	Atoms     int         `json:"atoms"`
	GoVersion string      `json:"go_version"`
	NumCPU    int         `json:"num_cpu"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	Host      string      `json:"host,omitempty"` // Fingerprint(); older reports lack it
	Kernels   []KernelRow `json:"kernels"`
}

// ReadKernelReport loads a BENCH_kernels.json file.
func ReadKernelReport(path string) (*KernelReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r KernelReport
	if err := json.NewDecoder(f).Decode(&r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// WriteKernelReport writes the report as indented JSON, failing loudly
// on any write or close error (a truncated benchmark report with exit
// code 0 would poison every later comparison).
func WriteKernelReport(path string, r *KernelReport) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(r); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// Entry converts the report into a trajectory entry. The host
// fingerprint comes from the report itself when present (reports made on
// other machines keep their identity); older reports fall back to a
// fingerprint composed from their recorded platform fields.
func (r *KernelReport) Entry(tool, gitSHA string) Entry {
	host := r.Host
	if host == "" {
		host = fmt.Sprintf("%s/%s cpu=%d %s host=", r.GOOS, r.GOARCH, r.NumCPU, r.GoVersion)
	}
	e := Entry{
		Tool:   tool,
		GitSHA: gitSHA,
		Host:   host,
		ConfigHash: ConfigHash(struct {
			Tool      string   `json:"tool"`
			Atoms     int      `json:"atoms"`
			Workloads []string `json:"workloads"`
		}{tool, r.Atoms, r.Workloads}),
		Atoms: r.Atoms,
	}
	for _, k := range r.Kernels {
		e.Rows = append(e.Rows, Row{
			Name:    k.Kernel,
			Workers: k.Workers,
			NsPerOp: k.NsPerOp,
			Flops:   k.Flops,
			Bytes:   k.Bytes,
			AI:      k.AI,
		})
	}
	return e
}
