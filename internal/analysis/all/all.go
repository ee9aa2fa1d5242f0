// Package all enumerates every karousos-vet analyzer. The list is also the
// directive registry: a //karousos:<name>-ok directive is well-formed only
// when <name> is the Name of an analyzer here.
package all

import (
	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/detlint"
	"karousos.dev/karousos/internal/analysis/errladder"
	"karousos.dev/karousos/internal/analysis/rejectcode"
)

// Analyzers is every analyzer karousos-vet runs, in output order.
var Analyzers = []*analysis.Analyzer{
	detlint.Analyzer,
	errladder.Analyzer,
	rejectcode.Analyzer,
}
