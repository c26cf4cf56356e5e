// Command obsdiff compares two schema-versioned run reports and flags
// regressions; the comparison machinery lives in internal/obsdiff.
//
// Usage:
//
//	obsdiff [flags] base new
//
// Each argument is a run report (imrun -trace, GET /report).
//
//	-tolerance 0.15   relative slack: a cost metric may grow by up to
//	                  this fraction before it counts as a regression
//	-span-floor 1ms   spans whose base total is below this duration are
//	                  reported but never fail the gate (noise floor)
//	-json             emit the diff as machine-readable JSON instead of
//	                  the text table
//	-all              print every row, not just changed/regressed ones
//
// Exit status: 0 when no regression, 1 when any comparison exceeded the
// tolerance, 2 on usage or I/O errors.
package main

import (
	"os"

	"subsim/internal/obsdiff"
)

func main() {
	os.Exit(obsdiff.Run(os.Args[1:], os.Stdout))
}
