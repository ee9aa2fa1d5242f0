// Package all enumerates every karousos-vet analyzer. Importing it (as
// cmd/karousos-vet does) runs each analyzer's init registration, so the
// check-name registry (analysis.KnownChecks) and this list stay in sync by
// construction — the consistency test in this package proves it both ways.
package all

import (
	"karousos.dev/karousos/internal/analysis"
	"karousos.dev/karousos/internal/analysis/advicetaint"
	"karousos.dev/karousos/internal/analysis/conclint"
	"karousos.dev/karousos/internal/analysis/detlint"
	"karousos.dev/karousos/internal/analysis/errladder"
	"karousos.dev/karousos/internal/analysis/rejectcode"
	"karousos.dev/karousos/internal/analysis/retrysound"
)

// Analyzers is every analyzer karousos-vet runs, in output order.
var Analyzers = []*analysis.Analyzer{
	detlint.Analyzer,
	errladder.Analyzer,
	rejectcode.Analyzer,
	advicetaint.Analyzer,
	retrysound.Analyzer,
	conclint.Analyzer,
}
