package core

import (
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/nn"
)

// dist is the shell the four distributed trainers share — everything about
// a distributed run that does not depend on the decomposition: the rank
// count, the machine profile, the cluster whose Run launches the ranks, and
// the one Train. The block-row trainer (1D, 1.5D) and the mesh trainer (2D,
// 3D) embed it and supply only decompose.
type dist struct {
	name string
	p    int
	mach costmodel.Machine
	// cluster is the ranks this process hosts: SetCluster's, or a channel
	// fabric of all p built by the first Train that finds none.
	cluster *comm.Cluster

	// decompose is the decomposition: it checks the problem against the
	// rank count and returns the constructor of one rank's layerOps. It runs
	// once per Train, whatever the fabric and however many ranks this
	// process hosts: shared read-only state (a global transpose, the layout)
	// is built there, per-rank state in the constructor it returns.
	decompose func(p Problem, cfg nn.Config) (func(*comm.Comm) layerOps, error)
}

// newDist returns the shell of the named algorithm over p ranks.
func newDist(name string, p int, mach costmodel.Machine) dist {
	return dist{name: name, p: p, mach: mach}
}

// Name implements Trainer.
func (t *dist) Name() string { return t.name }

// Ranks returns the world's rank count.
func (t *dist) Ranks() int { return t.p }

// Cluster implements DistTrainer.
func (t *dist) Cluster() *comm.Cluster { return t.cluster }

// distributed is any trainer built on the shell: what SetCluster asserts
// instead of naming the concrete types.
type distributed interface{ shell() *dist }

func (t *dist) shell() *dist { return t }

// runRanks validates p, decomposes it once, and has the cluster run body on
// every rank this process hosts, each over its own layerOps. Train drives it
// with the standard engine run; the steady-state allocation tests drive a
// custom epoch loop through it.
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
	if t.cluster == nil {
		t.cluster = comm.NewCluster(t.p, comm.CostParams{Alpha: t.mach.Alpha, Beta: t.mach.Beta})
	}
	return t.cluster.Run(func(c *comm.Comm) error { return body(newRank(c), cfg, p) })
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
