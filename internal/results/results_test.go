package results

import "testing"

// TestConfigHashStability: equal configs hash equal, different ones
// differ, and the token is short hex.
func TestConfigHashStability(t *testing.T) {
	type cfg struct {
		Atoms int      `json:"atoms"`
		Grid  []string `json:"grid"`
	}
	a := ConfigHash(cfg{8000, []string{"lj", "eam"}})
	b := ConfigHash(cfg{8000, []string{"lj", "eam"}})
	c := ConfigHash(cfg{8000, []string{"lj"}})
	if a != b {
		t.Errorf("equal configs hash %q vs %q", a, b)
	}
	if a == c {
		t.Errorf("different configs collide: %q", a)
	}
	if len(a) != 12 {
		t.Errorf("hash length = %d, want 12", len(a))
	}
}
