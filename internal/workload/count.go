package workload

import (
	"fmt"
	"math"
	"strconv"
)

// ParseInstructions parses a command-line instruction count such as
// "3e8" (scientific notation is accepted; a fraction truncates). It
// rejects NaN, ±Inf, counts below min and counts that do not fit in a
// uint64: converting any of those would yield an arbitrary count and
// size a trace allocation from it.
func ParseInstructions(s string, min float64) (uint64, error) {
	f, err := strconv.ParseFloat(s, 64)
	switch {
	case err != nil:
		return 0, err
	case math.IsNaN(f) || math.IsInf(f, 0):
		return 0, fmt.Errorf("instruction count %q is not finite", s)
	case f < min:
		return 0, fmt.Errorf("instruction count %q is below the minimum %g", s, min)
	case f >= 1<<64:
		return 0, fmt.Errorf("instruction count %q does not fit in 64 bits", s)
	}
	return uint64(f), nil
}
