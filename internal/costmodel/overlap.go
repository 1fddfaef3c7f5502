package costmodel

// This file is the overlap-aware analytic counterpart of the comm
// package's timeline ledger: closed-form epoch-time predictors for the
// double-buffered pipelines the trainers run with overlap on, where each
// stage costs max(αm + βw, local SpMM/GEMM time) instead of their sum.
// costmodel_overlap_test.go pins PipelineTime against the simulated
// timeline exactly, stage schedule by stage schedule.

// Stage is one pipeline stage of a SUMMA-style loop: the α–β cost of the
// stage's collectives (summed — in-flight collectives queue on the rank's
// network link) and the local compute that consumes their panels.
type Stage struct {
	// Msgs and Words are the α- and β-unit totals of the stage's
	// collectives.
	Msgs, Words int64
	// Compute is the stage's local SpMM/GEMM seconds (Machine.SpMMTime /
	// GEMMTime of the panels).
	Compute float64
}

// CommTime returns the stage's α–β seconds on machine m.
func (s Stage) CommTime(m Machine) float64 {
	return m.CommTime(s.Msgs, s.Words)
}

// BulkTime returns the bulk-synchronous schedule time: every stage pays
// communication plus compute.
func (m Machine) BulkTime(stages []Stage) float64 {
	var t float64
	for _, s := range stages {
		t += s.CommTime(m) + s.Compute
	}
	return t
}

// PipelineTime returns the double-buffered schedule time: stage 0's
// collectives are issued up front, and stage k+1's are in flight while
// stage k's compute runs, so the recurrence is
//
//	clock ← max(clock, ready_k); ready_{k+1} ← clock + comm_{k+1};
//	clock ← clock + comp_k
//
// — per stage the critical path pays max(comm, comp), with stage 0's
// communication and the last stage's compute always exposed. This is
// exactly the arithmetic the timeline ledger performs when a trainer
// prefetches one stage ahead, so the prediction matches the simulated
// Elapsed bit for bit on identical stage schedules.
func (m Machine) PipelineTime(stages []Stage) float64 {
	if len(stages) == 0 {
		return 0
	}
	var clock float64
	ready := stages[0].CommTime(m)
	for k, s := range stages {
		if ready > clock {
			clock = ready
		}
		if k+1 < len(stages) {
			ready = clock + stages[k+1].CommTime(m)
		}
		clock += s.Compute
	}
	return clock
}
