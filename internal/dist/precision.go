package dist

// Precision names the arithmetic width of the engine's kernels.  The engine
// computes in float64 only — every result is bit-identical to ts.Dist for the
// same pair — so PrecisionFloat64 is the type's one value.  It survives for
// the deprecated configuration fields that still carry it.
type Precision uint8

// PrecisionFloat64 is the engine's only precision.
const PrecisionFloat64 Precision = 0
