package core

import (
	"fmt"

	"repro/internal/comm"
)

// SetTransportComm points a distributed trainer at an external fabric
// endpoint instead of its internal simulated cluster. With an endpoint
// set, Train runs only that endpoint's rank — the caller is the launcher
// (one process per rank over comm.DialTCP, or one goroutine per rank over
// comm.LocalTCPComms) and every participant must call Train with the same
// problem. The trainer's collective choreography is unchanged, so weights
// and outputs are bit-identical to the in-process run; the result is
// populated only on rank 0, and per-rank model accounting is read from
// the endpoint's Ledger rather than Cluster().
//
// The serial trainer has no fabric and rejects; a mismatched world size
// rejects rather than silently training a different decomposition.
func SetTransportComm(tr Trainer, c *comm.Comm) error {
	d, ok := tr.(distributed)
	if !ok {
		return fmt.Errorf("core: transport endpoints apply to the distributed trainers, not %q", tr.Name())
	}
	t := d.shell()
	if c.Size() != t.p {
		return fmt.Errorf("core: transport world size %d does not match trainer's %d ranks", c.Size(), t.p)
	}
	t.ext = c
	return nil
}
