// True-negative fixture for rejectcode: a suppression carries a reviewed
// //karousos:rejectcode-ok directive.
package rejectcodeok

import "errors"

func auditLegacy() error {
	//karousos:rejectcode-ok legacy shim scheduled for removal; callers map this to a coded reject
	return errors.New("legacy")
}
