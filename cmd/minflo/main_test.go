package main

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"minflo"
)

// TestExitCode holds exitCode to the contract exitCodeHelp writes
// down: each error class, bare or wrapped the way the layers below
// return it, maps to its own code, and every code it returns is listed
// in the help text.
func TestExitCode(t *testing.T) {
	for _, tc := range []struct {
		name string
		err  error
		want int
	}{
		{"success", nil, 0},
		{"usage", errors.New("unknown circuit \"nope\""), 1},
		{"infeasible", minflo.ErrInfeasible, 3},
		{"budget", fmt.Errorf("core: D-phase: %w", minflo.ErrBudgetExhausted), 4},
		{"engine failed", fmt.Errorf("core: D-phase: %w", fmt.Errorf("%w: solve panicked: boom", minflo.ErrEngineFailed)), 5},
		{"canceled", fmt.Errorf("core: D-phase: %w", minflo.ErrCanceled), 130},
	} {
		got := exitCode(tc.err)
		if got != tc.want {
			t.Errorf("%s: exitCode(%v) = %d, want %d", tc.name, tc.err, got, tc.want)
		}
		if !strings.Contains(exitCodeHelp, fmt.Sprintf("\n  %-4d ", got)) {
			t.Errorf("%s: exit code %d is missing from exitCodeHelp", tc.name, got)
		}
	}
}
