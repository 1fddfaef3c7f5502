package core

import "fmt"

// Precision names for KernelOptions.Precision.
const (
	// PrecisionF64 is the default double-precision path — bit-identical
	// across every worker count and decomposition.
	PrecisionF64 = "f64"
	// PrecisionF32 is mixed-precision training — the serial trainer
	// instantiated at float32: float32 storage and compute for the
	// adjacency and the large per-vertex matrices, float64 for row
	// reductions (log-sum-exp, loss), the master weights, and the
	// optimizer state. Within tolerance of f64, not bit-identical to it.
	PrecisionF32 = "f32"
)

// KernelOptions selects the compute kernels a trainer uses. The zero value
// is the default configuration: float64 CSR kernels, with the ReLU in the
// GEMM epilogues wherever the engine fuses it (on every trainer) — the
// exact kernels every bit-identity test pins down. The two fields are
// independent: either precision runs on either set of kernels.
//
// Only the serial trainer accepts non-default options (the distributed
// trainers' collectives are verified against the f64 serial reference and
// reject anything else rather than silently diverging).
type KernelOptions struct {
	// Precision is PrecisionF64 (default, "" accepted) or PrecisionF32.
	Precision string
	// Reference runs the pre-optimization scalar kernels (one source per
	// accumulation sweep, the ReLU as a separate pass after the multiply,
	// log-softmax a row at a time, always on the Go loops) — the oracle the
	// default path is bit-identical to, in either precision.
	Reference bool
}

// Validate checks the option values.
func (o KernelOptions) Validate() error {
	switch o.Precision {
	case "", PrecisionF64, PrecisionF32:
	default:
		return fmt.Errorf("core: unknown precision %q (want %s or %s)", o.Precision, PrecisionF64, PrecisionF32)
	}
	return nil
}

// isDefault reports whether the options name the default kernel
// configuration (every distributed trainer's only supported one).
func (o KernelOptions) isDefault() bool {
	return (o.Precision == "" || o.Precision == PrecisionF64) && !o.Reference
}

// SetKernelOptions configures a trainer's kernels. The serial trainer
// accepts every valid combination; distributed trainers accept only the
// default (their outputs are pinned bit-identical to the f64 serial
// reference, so a silently accepted override would break that contract).
func SetKernelOptions(tr Trainer, o KernelOptions) error {
	if err := o.Validate(); err != nil {
		return err
	}
	if s, ok := tr.(*Serial); ok {
		s.Kernel = o
		return nil
	}
	if !o.isDefault() {
		return fmt.Errorf("core: kernel options (precision) apply to the serial trainer, not %q", tr.Name())
	}
	return nil
}
