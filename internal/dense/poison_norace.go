//go:build !race

package dense

// poisonReleased is off outside race-detector builds: Release then costs
// no pass over the buffer.
const poisonReleased = false
