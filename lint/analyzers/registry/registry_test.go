package registry_test

import (
	"testing"

	"qcsim/lint/analyzers/registry"
)

func TestSuite(t *testing.T) {
	all := registry.All()
	if len(all) != 7 {
		t.Fatalf("suite has %d analyzers, want 7", len(all))
	}
	seen := make(map[string]bool)
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %q missing name, doc, or run", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	if !seen["allowdirective"] {
		t.Errorf("suite is missing the allowdirective auditor")
	}
}
