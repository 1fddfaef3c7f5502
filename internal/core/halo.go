package core

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/dense"
	"repro/internal/partition"
	"repro/internal/sparse"
)

// This file holds the halo-exchange plumbing shared by the 1D and 1.5D
// trainers: layout resolution, the one-time negotiation of fetch lists,
// and the per-product indexed row exchange.

// layout1DFor resolves a trainer's row layout: the explicit one when set
// (validated against the item and block counts), else near-equal blocks.
func layout1DFor(custom partition.Layout1D, n, blocks int) (partition.Layout1D, error) {
	if custom == nil {
		return partition.NewBlock1D(n, blocks), nil
	}
	if custom.Blocks() != blocks {
		return nil, fmt.Errorf("core: layout has %d blocks, trainer needs %d", custom.Blocks(), blocks)
	}
	if custom.Items() != n {
		return nil, fmt.Errorf("core: layout covers %d items, problem has %d vertices", custom.Items(), n)
	}
	return custom, nil
}

// exchangeHaloPlan negotiates a halo plan across a group, once per
// training run: every member announces the rows it needs from each peer
// (need[j], block-relative), and learns in return which of its own rows
// each peer requested. The index lists travel as sparse-structure words
// (CatSparseComm). It returns sendIdx — sendIdx[i] lists this member's
// local rows peer i will fetch every exchange — and recvFrom, the peers
// this member receives a payload from (those it needs at least one row
// of).
func exchangeHaloPlan(g *comm.Group, need [][]int) (sendIdx [][]int, recvFrom []bool) {
	q := g.Size()
	parts := make([]comm.Payload, q)
	for j := 0; j < q; j++ {
		parts[j] = comm.Payload{Ints: need[j]}
	}
	requests := g.AllToAll(parts, comm.CatSparseComm)
	sendIdx = make([][]int, q)
	recvFrom = make([]bool, q)
	for i := 0; i < q; i++ {
		if i == g.Rank() {
			continue // own block is gathered locally, never exchanged
		}
		// Deep-copy the request lists: received payload buffers belong to
		// the fabric's pool and are recycled at the first epoch boundary,
		// while the plan must survive the whole training run.
		sendIdx[i] = append([]int(nil), requests[i].Ints...)
		recvFrom[i] = len(need[i]) > 0
	}
	return sendIdx, recvFrom
}

// haloFetchAsync issues one indexed row exchange over a negotiated plan:
// this member sends the requested rows of its block x to each peer and
// receives the rows it needs, charged α·msgs + β·rows·f under
// CatDenseComm. The exchange is non-blocking: its α–β span stays in flight
// until the returned request is waited on, so the caller can multiply rows
// with no remote dependencies in the meantime. Payloads carry bare floats;
// receivers reshape them from the plan's row counts.
//
// The outbound row gathers draw from ws, and sent[i] is left holding the
// one for peer i (nil where nothing is sent), for the caller to release
// once the request is waited on; parts and sent are the caller's
// persistent scratch (len g.Size()), so steady-state exchanges allocate
// nothing.
func haloFetchAsync(g *comm.Group, x *dense.Matrix, sendIdx [][]int, recvFrom []bool, ws *dense.Workspace, parts []comm.Payload, sent []*dense.Matrix) *comm.Request {
	for i := range parts {
		parts[i], sent[i] = comm.Payload{}, nil
	}
	for i, idx := range sendIdx {
		if len(idx) > 0 {
			rows := ws.GetUninit(len(idx), x.Cols)
			dense.GatherRowsInto(rows, x, idx)
			parts[i], sent[i] = comm.Payload{Floats: rows.Data}, rows
		}
	}
	return g.IExchangeIndexed(parts, recvFrom, comm.CatDenseComm)
}

// haloRowSplit classifies the nRows local output rows of a halo-exchange
// product into interior rows — no nonzero in any remote adjacency block,
// so their entire product comes from the local block — and frontier rows
// (everything else). remote lists the column-compacted remote blocks (nil
// entries are skipped). The block-row trainers multiply interior rows
// while the halo fetch is in flight and frontier rows after its Wait;
// since an interior row receives contributions from exactly one block and
// frontier rows are processed in block order, the split is bit-identical
// to multiplying whole blocks in block order.
func haloRowSplit(nRows int, remote []*sparse.CSR) (interior, frontier []int) {
	isFrontier := make([]bool, nRows)
	for _, b := range remote {
		if b == nil {
			continue
		}
		for i := 0; i < nRows; i++ {
			if b.RowPtr[i+1] > b.RowPtr[i] {
				isFrontier[i] = true
			}
		}
	}
	for i, f := range isFrontier {
		if f {
			frontier = append(frontier, i)
		} else {
			interior = append(interior, i)
		}
	}
	return interior, frontier
}
