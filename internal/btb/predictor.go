// Package btb implements indirect branch predictors.
//
// The central model is the branch target buffer (BTB, paper Section
// 2.2): a table indexed by branch address that predicts each indirect
// branch jumps to the same target as on its previous execution. The
// package also provides the variants the paper discusses: a BTB with
// two-bit hysteresis counters, a two-level history-based indirect
// predictor (Driesen and Hölzle; the Pentium M style predictor from
// Section 8), and the case-block table of Kaeli and Emma, which keys
// predictions on the switch operand.
package btb

// Predictor is an indirect branch predictor.
//
// Access performs one predict-and-update step for an executed indirect
// branch: branch is the address of the branch instruction, hint is an
// auxiliary key available to operand-indexed predictors (the VM opcode
// for a switch-style dispatch; BTB-style predictors ignore it), and
// target is the actual branch destination. It reports whether the
// predictor had predicted the target correctly before updating.
type Predictor interface {
	// Name identifies the predictor configuration for reports.
	Name() string
	// Access predicts the branch, updates predictor state with the
	// actual target, and reports whether the prediction was correct.
	Access(branch, hint, target uint64) bool
	// Reset clears all predictor state.
	Reset()
}
