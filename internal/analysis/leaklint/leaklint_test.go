package leaklint_test

import (
	"testing"

	"karousos.dev/karousos/internal/analysis/analysistest"
	"karousos.dev/karousos/internal/analysis/leaklint"
)

func TestLeaklint(t *testing.T) {
	analysistest.Run(t, "testdata", leaklint.Analyzer, "leaklintfix", "leaklintok")
}
