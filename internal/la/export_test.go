package la

// SetPoison turns the reuse hook on (or off) for the tests of la_test,
// which drive the chunked operands this package cannot import.
func SetPoison(on bool) { poison = on }
