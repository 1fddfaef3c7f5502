//go:build !race

package dense

// PoisonReleased is off outside race-detector builds: a release then costs
// no pass over the buffer.
const PoisonReleased = false
