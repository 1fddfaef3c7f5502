package core

import (
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/nn"
)

// dist is the shell the four distributed trainers share — everything about
// a distributed run that does not depend on the decomposition: the rank
// count, the machine profile, the simulated cluster or the external
// endpoint the ranks execute on, and the one Train. The block-row trainer
// (1D, 1.5D) and the mesh trainer (2D, 3D) embed it and supply only
// decompose.
type dist struct {
	name    string
	p       int
	mach    costmodel.Machine
	cluster *comm.Cluster
	ext     *comm.Comm // external transport endpoint; see SetTransportComm

	// Overlap hides communication behind local compute on the modeled
	// timeline: non-blocking collectives, double-buffered so each pipeline
	// stage costs max(comm, comp) instead of their sum. The block-row
	// trainers keep block s+1's dense broadcast in flight while block s
	// multiplies, or, in halo mode, issue the indexed row fetch
	// asynchronously, multiply interior rows — those with no remote
	// dependencies — at once and frontier rows after the Wait. The mesh
	// trainers issue SUMMA stage k+1's panel broadcasts while stage k's local
	// SpMM/GEMM runs (the 3D fiber reduce-scatter stays synchronous — its
	// result is consumed immediately). Every path accumulates the same
	// panels in the same order, so results are bit-identical to the
	// synchronous runs. Set before Train.
	Overlap bool

	// decompose is the decomposition: it checks the problem against the
	// rank count and returns the constructor of one rank's layerOps. Shared
	// read-only state (a global transpose, the layout) is built once in
	// decompose, per-rank state in the constructor it returns.
	decompose func(p Problem, cfg nn.Config) (func(*comm.Comm) layerOps, error)
}

// newDist returns the shell of the named algorithm over p simulated ranks.
func newDist(name string, p int, mach costmodel.Machine) dist {
	return dist{
		name:    name,
		p:       p,
		mach:    mach,
		cluster: comm.NewCluster(p, comm.CostParams{Alpha: mach.Alpha, Beta: mach.Beta}),
	}
}

// Name implements Trainer.
func (t *dist) Name() string { return t.name }

// Ranks returns the simulated rank count.
func (t *dist) Ranks() int { return t.p }

// Cluster implements DistTrainer.
func (t *dist) Cluster() *comm.Cluster { return t.cluster }

// distributed is any trainer built on the shell: what SetOverlap and
// SetTransportComm assert instead of naming the concrete types.
type distributed interface{ shell() *dist }

func (t *dist) shell() *dist { return t }

// runRanks validates p, builds each rank's layerOps, and executes body on
// every simulated rank — or, with an external endpoint set, on that
// endpoint's rank alone. Train drives it with the standard engine run; the
// steady-state allocation tests drive a custom epoch loop through it.
func (t *dist) runRanks(p Problem, body func(ops layerOps, cfg nn.Config, prob Problem) error) error {
	p = p.normalized()
	if err := p.Validate(); err != nil {
		return err
	}
	cfg := p.Config.WithDefaults()
	newRank, err := t.decompose(p, cfg)
	if err != nil {
		return err
	}
	run := func(c *comm.Comm) error { return body(newRank(c), cfg, p) }
	if t.ext != nil {
		return run(t.ext)
	}
	return t.cluster.Run(run)
}

// Train implements Trainer.
func (t *dist) Train(p Problem) (*Result, error) {
	var result Result
	err := t.runRanks(p, func(ops layerOps, cfg nn.Config, prob Problem) error {
		out, err := newEngine(ops, cfg, prob).meta(t.name, t.p).run()
		if err != nil {
			return err
		}
		if out != nil {
			result = *out
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &result, nil
}
