package layout

import "testing"

// TestVectorKernelMatchesStdlib calls the VPCLMULQDQ path itself, below
// the dispatch threshold too, at every length it accepts.
func TestVectorKernelMatchesStdlib(t *testing.T) {
	if !hasVPCLMUL() {
		t.Skip("CPU or OS lacks AVX-512 VPCLMULQDQ: the vector kernel is not exercised here")
	}
	checkAgainstStdlib(t, 256, updateVector)
}
