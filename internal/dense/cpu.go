package dense

// The routines in use, chosen once at package init from what the CPU
// reports and never changed afterwards: the Go bodies unless a platform file
// (cpu_amd64.go) replaces them. There is no option: each vector routine is
// bit-identical to its Go body, so nothing but speed depends on which one
// runs.
var (
	kernelISA = "go"
	tileF64   = tileFunc(gemmTile)
	csrF64    = csrTileFunc(csrTile)
	compact64 = compactFunc(compactNZGo)
	lanesF64  rowLanes
)

// tileBody is one implementation of the two register tiles, named by the
// instruction set it runs on.
type tileBody struct {
	isa  string
	tile tileFunc
	csr  csrTileFunc
}

// tileBodies are the tile bodies this process can run: the Go one, then
// whichever vector bodies the platform file adds for this CPU, widest last.
// The last one is the one installed.
var tileBodies = []tileBody{{"go", gemmTile, csrTile}}

// KernelISA names the instruction set the kernels run on in this process:
// "avx512" (the tiles' AVX-512 bodies beside the other AVX2 routines),
// "avx2" (the assembly routines) or "go" (the portable loops — every GOARCH
// but amd64, an x86 without AVX2 and FMA, and any build with -tags purego).
func KernelISA() string { return kernelISA }
