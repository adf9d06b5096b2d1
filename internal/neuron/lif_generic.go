//go:build !amd64 || race

package neuron

// candidatesVec leaves every lane to candidatesGo: this build has no
// assembly kernel (race builds run the Go kernels because the race
// detector cannot see memory that assembly touches).
func (p *Population) candidatesVec(lo, hi int, dt, now, thetaDecay float64, adapt bool, current []float64, out []int) (int, []int) {
	return lo, out
}
