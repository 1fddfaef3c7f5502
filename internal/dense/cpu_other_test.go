//go:build purego || !amd64

package dense

// cpuReports says whether this build runs the tile body for isa: only the
// Go body has no assembly.
func cpuReports(isa string) bool { return isa == "go" }
