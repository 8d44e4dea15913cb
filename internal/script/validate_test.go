package script

import (
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

// setupPrelude establishes units, a lattice and a box with atoms: what
// pair_style needs before it.
const setupPrelude = "units lj\nlattice fcc 0.8442\nregion box block 0 2 0 2 0 2\ncreate_box 1 box\ncreate_atoms 1 box\n"

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown-command", "units lj\nexplode all\nrun 5\n", "unknown command"},
		{"unknown-line-number", "units lj\n\n# c\nbogus\nrun 5\n", "line 4"},
		{"no-run", "units lj\ntimestep 0.005\n", "no run command"},
		{"continuation-hides-nothing", setupPrelude + "pair_style &\nbroken 2.5\npair_coeff * * 1 1\nfix 1 all nve\nrun 1\n", ""},
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
