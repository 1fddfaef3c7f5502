package core

import (
	"fmt"

	"repro/internal/comm"
)

// SetCluster runs a distributed trainer on the given cluster instead of
// the channel-fabric one it would build for itself: comm.ClusterOf over
// comm.LocalTCPComms' endpoints hosts the whole world over loopback
// sockets, comm.ClusterOf over one comm.DialTCP endpoint hosts this
// process's rank of a multi-process world (every process must then call
// Train with the same problem). A cluster is the ranks this process hosts;
// the transport is what they talk over, and the trainer's collective
// choreography does not depend on it, so weights and outputs are
// bit-identical on every fabric. The result is populated where rank 0 is
// hosted, and Cluster() returns cl.
//
// The serial trainer has no fabric and rejects; a mismatched world size
// rejects rather than silently training a different decomposition.
func SetCluster(tr Trainer, cl *comm.Cluster) error {
	d, ok := tr.(distributed)
	if !ok {
		return fmt.Errorf("core: a cluster applies to the distributed trainers, not %q", tr.Name())
	}
	t := d.shell()
	if cl.Size() != t.p {
		return fmt.Errorf("core: cluster world size %d does not match trainer's %d ranks", cl.Size(), t.p)
	}
	t.cluster = cl
	return nil
}
