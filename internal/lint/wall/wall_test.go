package wall

import "testing"

func TestInside(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"varsim/internal/core", true},
		{"varsim/internal/core/sub", true},
		{"varsim/internal/corex", false}, // prefix match is per path segment
		{"varsim/internal/fleet", false},
		{"varsim/internal/obs", false},
		{"varsim/internal/rng", true},
		{"fmt", false},
	}
	for _, c := range cases {
		if got := Inside(c.path); got != c.want {
			t.Errorf("Inside(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

func TestContract(t *testing.T) {
	cases := []struct {
		path string
		want bool
	}{
		{"varsim/internal/fleet", true},
		{"varsim/internal/journal", true},
		{"varsim/internal/sampling", true},
		{"varsim/internal/obs", false},
		{"varsim/internal/core", false},
		{"time", false},
	}
	for _, c := range cases {
		if got := Contract(c.path); got != c.want {
			t.Errorf("Contract(%q) = %v, want %v", c.path, got, c.want)
		}
	}
}

// TestDisjoint pins the invariant the analyzers rely on: no package is
// both inside the wall and a contract boundary.
func TestDisjoint(t *testing.T) {
	for _, p := range prefixes {
		if Contract(p) {
			t.Errorf("package %s is both inside the wall and a contract boundary", p)
		}
	}
}
