package comm

import (
	"fmt"
	"sync"
)

// Transport returns the fabric endpoint beneath this Comm — to wrap it
// (FaultTransport), or to inspect the transport kind.
func (c *Comm) Transport() Transport { return c.tr }

// LocalTCPComms bootstraps a complete TCP fabric on loopback inside one
// process: a coordinator on an ephemeral port plus one DialTCP endpoint
// per rank, each wrapped in a Comm with the given cost constants. The
// frames cross real sockets — it is the TCP code path end to end, minus
// process isolation — which makes it the workhorse for equivalence tests
// and for `cagnet-train -transport tcp` without an external launcher.
//
// ClusterOf(comms...) hosts the endpoints: its Run launches the ranks and
// its Close releases the sockets.
func LocalTCPComms(p int, cost CostParams) ([]*Comm, error) {
	co, err := NewCoordinator("127.0.0.1:0", p)
	if err != nil {
		return nil, err
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- co.Serve() }()

	comms := make([]*Comm, p)
	errs := make([]error, p)
	var wg sync.WaitGroup
	for r := 0; r < p; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			tr, err := DialTCP(co.Addr(), rank, p)
			if err != nil {
				errs[rank] = err
				return
			}
			comms[rank] = NewTransportComm(tr, cost)
		}(r)
	}
	wg.Wait()
	for rank, e := range errs {
		if e != nil && err == nil {
			err = fmt.Errorf("comm: loopback rank %d: %w", rank, e)
		}
	}
	if err != nil {
		co.ln.Close() // a failed rank's hello never comes: stop Serve waiting for it
	}
	if serr := <-serveErr; serr != nil && err == nil {
		err = fmt.Errorf("comm: loopback rendezvous: %w", serr)
	}
	if err != nil {
		for _, c := range comms {
			if c != nil {
				c.tr.Close()
			}
		}
		return nil, err
	}
	return comms, nil
}
