// Package unuseddirective holds a well-formed suppression directive that
// covers no finding.
package unuseddirective

// One returns one; no analyzer flags it.
func One() int {
	return 1 //karousos:errladder-ok nothing on this line drops an error
}
