// True-negative fixture for advicetaint: the one unclamped allocation
// carries a reviewed //karousos:advicetaint-ok directive.
package advicesizeok

import "encoding/binary"

func decode(buf []byte) []byte {
	n, _ := binary.Uvarint(buf)
	//karousos:advicetaint-ok bounded by the 4 KiB frame cap this fixture's protocol enforces upstream
	return make([]byte, n)
}
