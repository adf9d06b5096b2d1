//go:build !amd64 || race

package synapse

// rollDraws is rollDrawsGo: off amd64 there is no assembly kernel, and in
// race builds the race detector could not see the memory it writes.
func rollDraws(hPot, hDep uint64, post, lo int, pot, dep []uint64) {
	rollDrawsGo(hPot, hDep, post, lo, pot, dep)
}
