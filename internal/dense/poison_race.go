//go:build race

package dense

// poisonReleased makes WorkspaceOf.Release fill what it takes back with
// NaN in a race-detector build, where a read after release then changes
// every result it reaches.
const poisonReleased = true
