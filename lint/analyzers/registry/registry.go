// Package registry assembles the qclint analyzer suite. The driver
// and any future vet-tool shim both pull from here so the set cannot
// drift between entry points.
package registry

import (
	"qcsim/lint/analyzers/allowdirective"
	"qcsim/lint/analyzers/blockaccess"
	"qcsim/lint/analyzers/ctxflow"
	"qcsim/lint/analyzers/deadexport"
	"qcsim/lint/analyzers/detrand"
	"qcsim/lint/analyzers/errwrap"
	"qcsim/lint/analyzers/importboundary"
	"qcsim/lint/internal/analysis"
)

// All returns every analyzer in the suite, including the directive
// auditor parameterized with the others' names.
func All() []*analysis.Analyzer {
	core := []*analysis.Analyzer{
		importboundary.Analyzer,
		blockaccess.Analyzer,
		errwrap.Analyzer,
		detrand.Analyzer,
		ctxflow.Analyzer,
		deadexport.Analyzer,
	}
	names := make([]string, 0, len(core))
	for _, a := range core {
		names = append(names, a.Name)
	}
	return append(core, allowdirective.New(names))
}
