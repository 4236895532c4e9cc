package core

// CheckPieces exposes the piecewise-reconstruction property check to the
// external core_test package, whose subject tests need the root package's
// Run to collect real segments.
var CheckPieces = checkPieces
