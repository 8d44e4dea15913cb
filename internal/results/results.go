// Package results holds the provenance helpers a measurement record
// carries so that two records can be told comparable: which host made it
// (Fingerprint), from which commit (GitSHA), and under which generating
// configuration (ConfigHash). bench/ stamps its result files with the
// first two; the mdsweep campaign manifest uses all three.
package results

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Fingerprint identifies the measuring host: platform, core count, Go
// toolchain, and hostname. Wall times are only comparable between records
// with equal fingerprints.
func Fingerprint() string {
	host, _ := os.Hostname() // best effort; empty on error
	return fmt.Sprintf("%s/%s cpu=%d %s host=%s",
		runtime.GOOS, runtime.GOARCH, runtime.NumCPU(), runtime.Version(), host)
}

// ConfigHash hashes the generating configuration (grids, fidelity caps)
// into a short stable token: two campaigns compare only when the sweep
// that produced them was identical. v must JSON-encode deterministically
// (struct or flat map).
func ConfigHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Config structs are plain data; an unencodable one is a bug.
		panic(fmt.Sprintf("results: config hash: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:12]
}

// GitSHA resolves the repository HEAD for dir, or "unknown" when git is
// unavailable (results stay usable outside a checkout).
func GitSHA(dir string) string {
	cmd := exec.Command("git", "rev-parse", "--short=12", "HEAD")
	cmd.Dir = dir
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
