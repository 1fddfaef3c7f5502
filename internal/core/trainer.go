// Package core implements the paper's contribution: full-batch GCN training
// under the 1D, 1.5D, 2D (SUMMA), and 3D (Split-3D-SpMM) parallel
// decompositions of §IV, plus the serial reference every distributed
// trainer is verified against.
//
// A single shared engine (engine.go) owns the training loop — epochs,
// activation bookkeeping, loss normalization, optimizer steps, accuracy
// tracking, output assembly — and drives a small layerOps interface that
// each decomposition implements with only its layout-specific SpMM and
// collective choreography. The family is written once: the four distributed
// trainers share one shell (dist.go: ranks, cluster, Train); 1D
// and 1.5D are one block-row trainer with one product for both aggregations
// (rows.go), of which 1D is the c = 1 case; 2D and 3D are one SUMMA on a
// q × q × d mesh (mesh.go), at depth 1 and ∛P.
//
// All trainers compute the same mathematics (§III-C/D):
//
//	forward:  Z^l = Aᵀ H^{l-1} W^l,  H^l = σ(Z^l)
//	backward: G^l = ∂L/∂Z^l,
//	          Y^l  = (H^{l-1})ᵀ A G^l        (weight gradient)
//	          ∂L/∂H^{l-1} = A G^l (W^l)ᵀ
//	update:   W^l ← W^l − lr·Y^l
//
// and differ only in how matrices are partitioned and which collectives move
// them, exactly as in the paper.
//
// Every trainer's local compute goes through the pool-dispatched kernels in
// internal/dense and internal/sparse: large SpMM/GEMM/activation calls are row-partitioned across the shared worker
// pool (internal/parallel) with bit-identical results. The serial trainer
// gets the whole pool; the distributed trainers run inside comm.Cluster.Run,
// which registers the rank goroutines it starts with the pool so per-rank
// kernels split the machine instead of oversubscribing it.
//
// A cluster is the ranks this process hosts; the transport is what they talk
// over. Cluster.Run is the one launcher — all P ranks on the channel fabric
// (the default a trainer builds for itself), all P over loopback sockets, or
// this process's one rank of a multi-process world (SetCluster) — and the
// one failure policy: a rank that panics is recovered, its root cause is
// broadcast so that no peer waits for it, and Train returns that cause
// naming the rank. The decomposition (Problem validation, the symmetry scan,
// a global transpose, the layout) runs once per Train in the calling
// goroutine, before any rank starts, however many ranks the process hosts.
package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/dense"
	"repro/internal/nn"
	"repro/internal/sparse"
)

// Problem bundles one training task: the modified adjacency matrix A
// (already normalized, self-loops added), input features H⁰, labels, and
// the network configuration.
type Problem struct {
	// A is the n x n modified adjacency matrix. Every trainer handles a
	// general directed A; a symmetric one (all the paper's datasets) saves
	// each of them the transpose.
	A        *sparse.CSR
	Features *dense.Matrix
	Labels   []int
	// TrainMask restricts the loss to marked vertices (the semi-supervised
	// split of §V-C); nil trains on the whole graph, as the paper does for
	// Amazon and Protein.
	TrainMask []bool
	// ValMask marks held-out vertices. When set, the engine tracks
	// train/validation accuracy per epoch (Result.TrainAccuracy,
	// Result.ValAccuracy); validation vertices never contribute to the
	// loss. If TrainMask is nil, it is derived as ValMask's complement; an
	// explicit TrainMask is used as given.
	ValMask []bool
	Config  nn.Config
	// Checkpoint enables periodic snapshots of the training state (see
	// internal/checkpoint). Rank 0 writes them; on startup every rank
	// restores from the latest one — the state is replicated, so a resumed
	// run continues bit-identically to an uninterrupted one.
	Checkpoint checkpoint.Options
	// Drain, when non-nil, is polled once per epoch boundary on every
	// rank and the votes are OR-reduced across the world: as soon as any
	// rank's hook returns true, every rank finishes the current epoch,
	// rank 0 writes a final checkpoint (when checkpointing is on), and
	// training stops cleanly with Result.DrainedEpoch set. This is the
	// graceful-shutdown path — SIGTERM handlers flip an atomic flag that
	// the hook reads. Nil (the default) adds no per-epoch collective, so
	// communication ledgers and allocation counts are untouched.
	Drain func() bool

	// order is the relabeling PartitionProblem applied: vertex i's input
	// row is Features row order[i] (nil: row i). A relabeled problem is a
	// view of H⁰, not a copy — the features keep their original order, and
	// each trainer reads its rows through order.
	order []int
}

// features returns H⁰ in the problem's vertex order: Features itself, or
// for a relabeled problem its rows gathered into a copy. The serial and
// mesh trainers call it once per Train; the block-row trainer, the one a
// partitioner applies to, gathers only its own rows (rowRank.setup).
func (p Problem) features() *dense.Matrix {
	if p.order == nil {
		return p.Features
	}
	return dense.GatherRows(p.Features, p.order)
}

// normalized returns p with the documented mask contract applied: a
// ValMask without an explicit TrainMask trains on the complement, so
// held-out vertices never leak into the loss. Every trainer calls this
// right after Validate.
func (p Problem) normalized() Problem {
	if p.ValMask == nil || p.TrainMask != nil {
		return p
	}
	train := make([]bool, len(p.ValMask))
	for i, v := range p.ValMask {
		train[i] = !v
	}
	p.TrainMask = train
	return p
}

// lossNormalizer returns the global count of supervised vertices.
func (p Problem) lossNormalizer() int {
	return nn.CountMask(p.TrainMask, p.A.Rows)
}

// Validate checks shape consistency.
func (p Problem) Validate() error {
	if err := p.Config.Validate(); err != nil {
		return err
	}
	if err := p.Checkpoint.Validate(); err != nil {
		return err
	}
	if len(p.Config.Widths) < 2 {
		return fmt.Errorf("core: need at least 2 widths (input, output), got %d", len(p.Config.Widths))
	}
	for i, w := range p.Config.Widths {
		if w <= 0 {
			return fmt.Errorf("core: width %d is %d, must be positive", i, w)
		}
	}
	if p.A == nil || p.Features == nil {
		return fmt.Errorf("core: nil matrices in problem")
	}
	if p.A.Rows != p.A.Cols {
		return fmt.Errorf("core: adjacency must be square, got %dx%d", p.A.Rows, p.A.Cols)
	}
	if p.Features.Rows != p.A.Rows {
		return fmt.Errorf("core: features have %d rows, adjacency has %d", p.Features.Rows, p.A.Rows)
	}
	if p.Features.Cols != p.Config.Widths[0] {
		return fmt.Errorf("core: features have %d columns, config expects %d", p.Features.Cols, p.Config.Widths[0])
	}
	if len(p.Labels) != p.A.Rows {
		return fmt.Errorf("core: %d labels for %d vertices", len(p.Labels), p.A.Rows)
	}
	if p.TrainMask != nil && len(p.TrainMask) != p.A.Rows {
		return fmt.Errorf("core: train mask covers %d vertices, graph has %d", len(p.TrainMask), p.A.Rows)
	}
	if p.TrainMask != nil && nn.CountMask(p.TrainMask, 0) == 0 {
		return fmt.Errorf("core: train mask selects no vertices")
	}
	if p.ValMask != nil && len(p.ValMask) != p.A.Rows {
		return fmt.Errorf("core: val mask covers %d vertices, graph has %d", len(p.ValMask), p.A.Rows)
	}
	if p.ValMask != nil && nn.CountMask(p.ValMask, 0) == 0 {
		return fmt.Errorf("core: val mask selects no vertices")
	}
	k := p.Config.Widths[len(p.Config.Widths)-1]
	for i, l := range p.Labels {
		if l < 0 || l >= k {
			return fmt.Errorf("core: label[%d] = %d out of range for %d classes", i, l, k)
		}
	}
	return nil
}

// symmetric reports whether A = Aᵀ (up to rounding). One pass over the
// nonzeros: rows are visited in order and every row's columns ascend, so
// entry (i, j) must meet the next unread entry of row j, and that entry must
// be (j, i) with the same value. Every trainer uses it to decide whether it
// needs the global Aᵀ, and the mesh also whether it runs the transpose
// exchange.
func symmetric(a *sparse.CSR) bool {
	next := append([]int(nil), a.RowPtr[:a.Rows]...)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j, v := a.ColIdx[k], a.Val[k]
			m := next[j]
			if m == a.RowPtr[j+1] || a.ColIdx[m] != i {
				return false
			}
			if w := a.Val[m]; math.Abs(v-w) > 1e-12*math.Max(math.Abs(v), math.Abs(w)) {
				return false
			}
			next[j]++
		}
	}
	return true
}

// Result reports a completed training run.
type Result struct {
	// Weights are the trained W^1..W^L.
	Weights []*dense.Matrix
	// Output is the final embedding H^L (n x f^L).
	Output *dense.Matrix
	// Losses holds the full-batch loss of each epoch.
	Losses []float64
	// Accuracy is the training accuracy of the final output.
	Accuracy float64
	// TrainAccuracy and ValAccuracy hold per-epoch accuracies over
	// Problem.TrainMask and Problem.ValMask, evaluated on each epoch's
	// forward output. They are populated only when ValMask is set.
	TrainAccuracy []float64
	ValAccuracy   []float64
	// ResumedEpoch is the epoch count restored from a checkpoint at
	// startup (0 when the run started fresh).
	ResumedEpoch int
	// DrainedEpoch is the epoch after which a Problem.Drain vote stopped
	// the run early (0 when the run trained to Config.Epochs).
	DrainedEpoch int
}

// Digest is a SHA-256 over the IEEE-754 bits of the run's answer: the
// per-epoch losses, then each weight matrix and the output, each as its
// shape followed by its data in row-major order. Two runs share a digest
// iff they trained the same model bit for bit (−0 and +0 differ). It is
// computed when called, never during training.
func (r *Result) Digest() string {
	h := sha256.New()
	var word [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(word[:], v)
		h.Write(word[:])
	}
	floats := func(xs []float64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	matrix := func(m *dense.Matrix) {
		put(uint64(m.Rows))
		put(uint64(m.Cols))
		floats(m.Data)
	}
	floats(r.Losses)
	put(uint64(len(r.Weights)))
	for _, w := range r.Weights {
		matrix(w)
	}
	matrix(r.Output)
	return hex.EncodeToString(h.Sum(nil))
}

// Trainer runs full-batch GCN training on a problem. Implementations:
// Serial, the block-row trainer (NewOneD, NewOneFiveD) and the mesh trainer
// (NewTwoD, NewThreeD) — all driving the shared engine with their own
// layerOps; the distributed ones are the one shell (dist.go) around a
// decomposition.
type Trainer interface {
	// Name identifies the algorithm ("serial", "1d", "1.5d", "2d", "3d").
	Name() string
	// Train runs Config.Epochs epochs and returns the result.
	Train(p Problem) (*Result, error)
}

// DistTrainer is a Trainer that executes on a cluster, leaving the hosted
// ranks' cost ledgers on it for inspection.
type DistTrainer interface {
	Trainer
	// Cluster returns the cluster the trainer ran on: SetCluster's, or the
	// channel-fabric one its first Train built (nil before that).
	Cluster() *comm.Cluster
}

// NewTrainer constructs a trainer by algorithm name. p is the rank count
// (ignored for "serial"); mach supplies the cost constants. The 1.5D
// replication factor takes its default (2, falling back to 1 on odd p);
// use NewTrainerReplicated to choose it.
func NewTrainer(name string, p int, mach costmodel.Machine) (Trainer, error) {
	return NewTrainerReplicated(name, p, 0, mach)
}

// NewTrainerReplicated is NewTrainer with an explicit 1.5D replication
// factor c: 0 selects the default (2, falling back to 1 on odd p);
// otherwise c must divide p. Every algorithm rejects c < 0, algorithms
// other than "1.5d" reject c > 1, which would silently do nothing, every
// distributed algorithm rejects p < 1, and "2d" and "3d" reject a rank
// count that is not a perfect square or cube — here, before the caller
// builds a problem or opens a socket for it, with the error Train gives a
// directly constructed trainer.
func NewTrainerReplicated(name string, p, c int, mach costmodel.Machine) (Trainer, error) {
	if c < 0 || name != "1.5d" && c > 1 {
		return nil, fmt.Errorf("core: replication factor %d is not valid for the %q trainer (0 is the default, only 1.5d takes c > 1)", c, name)
	}
	switch name {
	case "serial":
		return NewSerial(), nil
	case "1d", "1.5d", "2d", "3d":
		if p < 1 {
			return nil, fmt.Errorf("core: the %s trainer needs at least 1 rank, got %d", name, p)
		}
	}
	switch name {
	case "1d":
		return NewOneD(p, mach), nil
	case "1.5d":
		if c == 0 {
			c = 2
			if p%2 != 0 {
				c = 1
			}
		}
		if p%c != 0 {
			return nil, fmt.Errorf("core: 1.5d replication factor %d must divide P=%d", c, p)
		}
		return NewOneFiveD(p, c, mach), nil
	case "2d", "3d":
		if _, err := meshFor(name, p); err != nil {
			return nil, err
		}
		if name == "2d" {
			return NewTwoD(p, mach), nil
		}
		return NewThreeD(p, mach), nil
	default:
		return nil, fmt.Errorf("core: unknown trainer %q (want serial, 1d, 1.5d, 2d, 3d)", name)
	}
}

// matWords returns the modeled resident size of a dense matrix in words.
func matWords(m *dense.Matrix) int64 { return int64(m.Rows) * int64(m.Cols) }

// csrWords returns the modeled resident size of a CSR block in words
// (values + column indices + row pointers).
func csrWords(m *sparse.CSR) int64 { return 2*int64(m.NNZ()) + int64(m.Rows) + 1 }

// csrPayload serializes a CSR block for transport: Ints = [rows, cols,
// rowptr..., colidx...], Floats = values.
func csrPayload(m *sparse.CSR) comm.Payload {
	ints := make([]int, 0, 2+len(m.RowPtr)+len(m.ColIdx))
	ints = append(ints, m.Rows, m.Cols)
	ints = append(ints, m.RowPtr...)
	ints = append(ints, m.ColIdx...)
	return comm.Payload{Floats: m.Val, Ints: ints}
}

// payloadCSR deserializes csrPayload output.
func payloadCSR(p comm.Payload) *sparse.CSR {
	rows, cols := p.Ints[0], p.Ints[1]
	rowPtr := p.Ints[2 : 3+rows]
	colIdx := p.Ints[3+rows:]
	return &sparse.CSR{Rows: rows, Cols: cols, RowPtr: rowPtr, ColIdx: colIdx, Val: p.Floats}
}

// matPayload serializes a dense matrix: Ints = [rows, cols], Floats = data.
func matPayload(m *dense.Matrix) comm.Payload {
	return comm.Payload{Floats: m.Data, Ints: []int{m.Rows, m.Cols}}
}

// matPayloadInto is matPayload writing the shape header into the caller's
// scratch (len ≥ 2, typically a rank's persistent dims buffer), so
// steady-state epochs serialize matrices without allocating. The scratch is
// free for reuse as soon as the collective consuming the payload returns:
// the fabric deep-copies outbound payloads.
func matPayloadInto(m *dense.Matrix, dims []int) comm.Payload {
	dims[0], dims[1] = m.Rows, m.Cols
	return comm.Payload{Floats: m.Data, Ints: dims[:2]}
}

// payloadMat deserializes matPayload output.
func payloadMat(p comm.Payload) *dense.Matrix {
	return dense.FromSlice(p.Ints[0], p.Ints[1], p.Floats)
}

// wrapMat is payloadMat drawing the matrix header from a workspace, for
// per-epoch deserialization on the hot path. The returned matrix aliases
// the payload's float buffer and is valid until the header's release and
// the payload's (Comm.Release), or the epoch boundary, which recycles both.
func wrapMat(ws *dense.Workspace, p comm.Payload) *dense.Matrix {
	return ws.Wrap(p.Ints[0], p.Ints[1], p.Floats)
}
