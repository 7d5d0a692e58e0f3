package dense

// Hooks for the external dense_test package, which needs tlr and so
// cannot live in package dense.

// SVDSweeps runs the Jacobi SVD of a and returns the sweeps it took and
// whether it converged before the cap.
func SVDSweeps(a *Matrix) (sweeps int, converged bool) {
	ws := GetWorkspace()
	defer ws.Release()
	_, sweeps, converged = svdJacobi(a, ws)
	return sweeps, converged
}

// RowMajorSVDSweeps is SVDSweeps for the row-major reference Jacobi,
// which has no negligible-column deflation.
func RowMajorSVDSweeps(a *Matrix) int {
	_, sweeps := svdRowMajorRef(a)
	return sweeps
}

// SVDMaxSweeps is the Jacobi sweep cap.
const SVDMaxSweeps = svdMaxSweeps
