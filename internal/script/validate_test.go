package script

import (
	"context"
	"strings"
	"testing"
)

func TestValidateAcceptsRealScript(t *testing.T) {
	src := `# comment line
units        lj
lattice      fcc 0.8442
region       box block 0 10 0 10 0 10
create_box   1 box
create_atoms 1 box
mass         1 1.0
velocity     all create 1.44 87287
pair_style   lj/cut 2.5
pair_coeff   1 1 &
             1.0 1.0
fix          1 all nve
thermo       50
timestep     0.005
run          200
`
	if err := Validate(strings.NewReader(src)); err != nil {
		t.Fatalf("Validate rejected a valid script: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown-command", "units lj\nexplode all\nrun 5\n", "unknown command"},
		{"unknown-line-number", "units lj\n\n# c\nbogus\nrun 5\n", "line 4"},
		{"no-run", "units lj\ntimestep 0.005\n", "no run command"},
		{"continuation-hides-nothing", "pair_style &\nbroken 2.5\nrun 1\n", ""},
		{"unknown-after-continuation", "zap &\n1 2\nrun 1\n", "unknown command"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := Validate(strings.NewReader(tc.src))
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateCoversInterpreter: every command Validate knows must be
// one the interpreter executes, and vice versa — the two tables cannot
// drift apart silently. The interpreter side is probed by running a
// one-command script and checking for its "unknown command" error.
func TestValidateCoversInterpreter(t *testing.T) {
	for cmd := range commands {
		// A bare command chokes on its missing arguments (error or panic)
		// — either way it got past name dispatch. Only the "unknown
		// command" error means the name itself was rejected.
		err := func() (err error) {
			defer func() { recover() }()
			return New(nullWriter{}).Run(context.Background(), strings.NewReader(cmd+"\n"))
		}()
		if err != nil && strings.Contains(err.Error(), "unknown command") {
			t.Errorf("Validate accepts %q but the interpreter does not", cmd)
		}
	}
}

type nullWriter struct{}

func (nullWriter) Write(p []byte) (int, error) { return len(p), nil }
