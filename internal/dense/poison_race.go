//go:build race

package dense

// PoisonReleased makes every arena's release — Workspace.Release and the
// fabric's payload pools — fill what it takes back with NaN in a
// race-detector build, where a read after release then changes every
// result it reaches.
const PoisonReleased = true
