package script

import "io"

// ParseErr is the error of parse, the one parse Validate and Run share.
func ParseErr(r io.Reader) error {
	_, _, err := parse(r)
	return err
}
