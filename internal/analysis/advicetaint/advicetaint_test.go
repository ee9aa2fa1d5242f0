package advicetaint_test

import (
	"testing"

	"karousos.dev/karousos/internal/analysis/advicetaint"
	"karousos.dev/karousos/internal/analysis/analysistest"
)

func TestAdvicetaint(t *testing.T) {
	analysistest.Run(t, "testdata", advicetaint.Analyzer, "advicetaintfix", "advicetaintok", "advicesizefix", "advicesizeok")
}
