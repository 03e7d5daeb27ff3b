package deadexport_test

import (
	"testing"

	"qcsim/lint/analyzers/deadexport"
	"qcsim/lint/internal/analysistest"
)

func TestDeadExport(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), deadexport.Analyzer,
		"qcsim/internal/demo",
		"qcsim/cmd/tool",
	)
}
