package main

import (
	"fmt"
	"math"
)

// gateFactor is the repo's acceptance bar for a solve: the relative
// residual ‖Ax−b‖/‖b‖ must stay within gateFactor·tol.
const gateFactor = 10

// gate checks one answer: every value finite and the relative residual
// within gateFactor·tol. A nil error means the answer is accepted.
func gate(values []float64, resid, tol float64) error {
	for i, v := range values {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("value %d is not finite (%g)", i, v)
		}
	}
	if math.IsNaN(resid) || math.IsInf(resid, 0) {
		return fmt.Errorf("residual is not finite (%g)", resid)
	}
	if resid > gateFactor*tol {
		return fmt.Errorf("residual %.3e exceeds %d·tol = %.1e", resid, gateFactor, gateFactor*tol)
	}
	return nil
}

// tally counts attempted and failed operations of one run. The first
// few gate failures are kept for the report.
type tally struct {
	attempted, failed int
	// wrong counts answers that failed the correctness gate; any
	// wrong answer makes the run incorrect. Transport errors and
	// non-200 replies count in failed only.
	wrong  int
	errors []string
}

func (t *tally) ok() { t.attempted++ }

func (t *tally) fail(wrongAnswer bool, err error) {
	t.attempted++
	t.failed++
	if wrongAnswer {
		t.wrong++
	}
	if len(t.errors) < 8 {
		t.errors = append(t.errors, err.Error())
	}
}

// check gates one answer and records the outcome.
func (t *tally) check(values []float64, resid, tol float64) {
	if err := gate(values, resid, tol); err != nil {
		t.fail(true, err)
		return
	}
	t.ok()
}

// okFrac is the share of attempted operations that succeeded.
func (t *tally) okFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.attempted-t.failed) / float64(t.attempted)
}
