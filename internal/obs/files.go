package obs

import (
	"fmt"
	"os"
)

// WriteFiles writes the trace and/or metrics dump to the given paths; an
// empty path (or nil source) skips that output. Shared by the mdrun and
// mdbench -trace/-metrics flags.
func WriteFiles(tr *Tracer, reg *Registry, tracePath, metricsPath string) error {
	if tracePath != "" && tr != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		if err := tr.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing trace %s: %w", tracePath, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	if metricsPath != "" && reg != nil {
		f, err := os.Create(metricsPath)
		if err != nil {
			return err
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			return fmt.Errorf("writing metrics %s: %w", metricsPath, err)
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}
