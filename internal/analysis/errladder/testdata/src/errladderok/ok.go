// True-negative fixture for errladder: the one deliberate raw comparison
// carries a reviewed //karousos:errladder-ok directive.
package errladderok

import "io"

func readAll(r io.Reader, p []byte) error {
	for {
		_, err := r.Read(p)
		if err == io.EOF { //karousos:errladder-ok io.Reader contract: Read returns io.EOF itself, never wrapped
			return nil
		}
		if err != nil {
			return err
		}
	}
}
