package sparse

import (
	"testing"

	"repro/internal/dense"
)

// The fuzz layer checks the CSR kernel invariants on arbitrary inputs.
// Nonzero and dense values are decoded to small integers, so every
// reference computation is exact and comparisons are bitwise — a
// mismatch is a real structural bug, never float noise.
//
// Run as fuzzers with
//
//	go test ./internal/sparse -run '^$' -fuzz FuzzCSRFromCOO -fuzztime 10s
//
// (one -fuzz target per invocation); under plain go test each target
// replays its seed corpus as a regular test.

// cooFromBytes decodes a byte stream into coordinate entries over a
// rows x cols matrix, three bytes per entry, values in [-7, 7].
func cooFromBytes(data []byte, rows, cols int) []Coord {
	var out []Coord
	for i := 0; i+2 < len(data); i += 3 {
		out = append(out, Coord{
			Row: int(data[i]) % rows,
			Col: int(data[i+1]) % cols,
			Val: float64(int(data[i+2]%15) - 7),
		})
	}
	return out
}

// dim clamps a fuzzed byte to a usable dimension in [1, 24].
func dim(b byte) int { return 1 + int(b)%24 }

// FuzzCSRFromCOO checks the COO→CSR construction invariants: valid,
// strictly sorted CSR structure; exact duplicate summation against a
// dense reference; Entries/NewCSR and Transpose/Transpose round-trips;
// and full-range ExtractBlock identity.
func FuzzCSRFromCOO(f *testing.F) {
	f.Add([]byte{}, byte(1), byte(1))
	f.Add([]byte{0, 0, 1, 0, 0, 2, 3, 4, 5}, byte(4), byte(6))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, byte(5), byte(5))
	f.Add([]byte{255, 255, 255, 0, 128, 64, 9, 9, 9, 9, 9, 9}, byte(24), byte(24))
	f.Fuzz(func(t *testing.T, data []byte, rb, cb byte) {
		rows, cols := dim(rb), dim(cb)
		entries := cooFromBytes(data, rows, cols)
		m := NewCSR(rows, cols, entries)

		// Structural invariants.
		if len(m.RowPtr) != rows+1 || m.RowPtr[0] != 0 || m.RowPtr[rows] != m.NNZ() {
			t.Fatalf("bad RowPtr frame: len %d, first %d, last %d, nnz %d",
				len(m.RowPtr), m.RowPtr[0], m.RowPtr[rows], m.NNZ())
		}
		for i := 0; i < rows; i++ {
			if m.RowPtr[i] > m.RowPtr[i+1] {
				t.Fatalf("RowPtr decreases at row %d", i)
			}
			for k := m.RowPtr[i]; k < m.RowPtr[i+1]; k++ {
				if m.ColIdx[k] < 0 || m.ColIdx[k] >= cols {
					t.Fatalf("column %d out of range at row %d", m.ColIdx[k], i)
				}
				if k > m.RowPtr[i] && m.ColIdx[k] <= m.ColIdx[k-1] {
					t.Fatalf("columns not strictly increasing in row %d", i)
				}
			}
		}

		// Exact duplicate summation against a dense reference (integer
		// values, so addition order cannot matter).
		ref := dense.New(rows, cols)
		for _, e := range entries {
			ref.Set(e.Row, e.Col, ref.At(e.Row, e.Col)+e.Val)
		}
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if got, want := m.At(i, j), ref.At(i, j); got != want {
					t.Fatalf("At(%d,%d) = %g, want %g", i, j, got, want)
				}
			}
		}

		// NewCSR(Entries()) is the identity. Note stored zeros (duplicates
		// canceling to 0) survive both directions.
		if rt := NewCSR(rows, cols, m.Entries()); !Equal(m, rt, 0) {
			t.Fatal("Entries→NewCSR round-trip differs")
		}
		// Transpose is an involution.
		if tt := m.Transpose().Transpose(); !Equal(m, tt, 0) {
			t.Fatal("double transpose differs")
		}
		// Extracting the full range is the identity.
		if blk := m.ExtractBlock(0, rows, 0, cols); !Equal(m, blk, 0) {
			t.Fatal("full-range ExtractBlock differs")
		}
	})
}

// FuzzSpMMChunks checks the nonzero-balanced worker split of SpMMAdd on
// aᵀ: for any chunk count the chunk starts tile the rows in order, and the
// product computed one chunk at a time on the CSR tile — in reverse, as
// unordered workers might — is bit-identical to the whole-range product,
// which overwrites its destination and is the reference loop's bit for bit.
func FuzzSpMMChunks(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 1, 2}, byte(3), byte(4), byte(2), byte(3))
	f.Add([]byte{5, 5, 5, 1, 2, 3, 9, 8, 7}, byte(8), byte(8), byte(3), byte(1))
	f.Add([]byte{}, byte(1), byte(6), byte(1), byte(7))
	f.Fuzz(func(t *testing.T, data []byte, rb, cb, fb, chunkb byte) {
		rows, cols := dim(rb), dim(cb)
		feats := 1 + int(fb)%6
		chunks := 1 + int(chunkb)%8
		at := NewCSR(rows, cols, cooFromBytes(data, rows, cols)).Transpose()
		x := dense.New(rows, feats)
		for i := range x.Data {
			b := byte(0)
			if len(data) > 0 {
				b = data[i%len(data)]
			}
			x.Data[i] = float64(int(b%9) - 4)
		}

		want := dense.New(cols, feats)
		SpMM(want, at, x)
		ref := dense.New(cols, feats)
		RefSpMM(ref, at, x)
		requireBitIdentical(t, ref, want)

		if lo, hi := chunkStart(at.RowPtr, 0, chunks), chunkStart(at.RowPtr, chunks, chunks); lo != 0 || hi != at.Rows {
			t.Fatalf("%d chunks cover rows [%d, %d), want [0, %d)", chunks, lo, hi, at.Rows)
		}
		got := dense.New(cols, feats)
		for c := chunks - 1; c >= 0; c-- {
			lo, hi := chunkStart(at.RowPtr, c, chunks), chunkStart(at.RowPtr, c+1, chunks)
			if lo > hi {
				t.Fatalf("chunk %d of %d is rows [%d, %d)", c, chunks, lo, hi)
			}
			spMMRows(got, at, x, lo, hi, true)
		}
		// The chunk count balances work; it must never change the result.
		if !dense.EqualWithin(got, want, 0) {
			t.Fatalf("chunked product differs from the whole, max |Δ| = %g", dense.MaxAbsDiff(got, want))
		}
		// A second product over the first overwrites it exactly.
		SpMM(got, at, x)
		if !dense.EqualWithin(got, want, 0) {
			t.Fatal("SpMM accumulated into a non-zero dst")
		}
	})
}

// FuzzHaloPlan checks the halo machinery: ColSupport/CompactCols agree,
// every compacted block re-expands onto its Need list to reproduce the
// original matrix exactly, and the skip block passes through
// uncompacted.
func FuzzHaloPlan(f *testing.F) {
	f.Add([]byte{0, 0, 1, 1, 3, 2, 2, 5, 3}, byte(4), byte(6), byte(2), byte(0), byte(7))
	f.Add([]byte{9, 9, 9}, byte(1), byte(1), byte(1), byte(1), byte(0))
	f.Add([]byte{1, 0, 1, 2, 1, 2, 3, 2, 3, 4, 3, 4}, byte(6), byte(12), byte(4), byte(2), byte(3))
	f.Fuzz(func(t *testing.T, data []byte, rb, cb, pb, skipb byte, cutb byte) {
		rows, cols := dim(rb), dim(cb)
		p := 1 + int(pb)%4
		at := NewCSR(rows, cols, cooFromBytes(data, rows, cols))

		// Derive a non-decreasing column tiling from the cut byte.
		offsets := make([]int, p+1)
		offsets[p] = cols
		for j := 1; j < p; j++ {
			lo := offsets[j-1]
			offsets[j] = lo + (int(cutb)+j*int(rb+1))%(cols-lo+1)
		}
		skip := int(skipb)%(p+1) - 1 // -1 = compact everything

		plan := BuildHaloPlan(at, offsets, skip)
		if len(plan.Need) != p || len(plan.Blocks) != p {
			t.Fatalf("plan has %d/%d blocks, want %d", len(plan.Need), len(plan.Blocks), p)
		}

		var rebuilt []Coord
		for j := 0; j < p; j++ {
			blk := plan.Blocks[j]
			width := offsets[j+1] - offsets[j]
			if j == skip {
				// Uncompacted pass-through: the raw extracted block.
				if want := at.ExtractBlock(0, rows, offsets[j], offsets[j+1]); !Equal(blk, want, 0) {
					t.Fatalf("skip block %d modified", j)
				}
				if plan.Need[j] != nil {
					t.Fatalf("skip block %d has a fetch list", j)
				}
				for _, e := range blk.Entries() {
					rebuilt = append(rebuilt, Coord{Row: e.Row, Col: offsets[j] + e.Col, Val: e.Val})
				}
				continue
			}
			// The fetch list is exactly the block's column support, sorted
			// strictly ascending within the block width.
			support := ColSupport(at, offsets[j], offsets[j+1])
			if len(plan.Need[j]) != len(support) {
				t.Fatalf("block %d Need has %d entries, support %d", j, len(plan.Need[j]), len(support))
			}
			for k := range support {
				if plan.Need[j][k] != support[k] {
					t.Fatalf("block %d Need[%d] = %d, want %d", j, k, plan.Need[j][k], support[k])
				}
				if support[k] < 0 || support[k] >= width {
					t.Fatalf("block %d support %d outside width %d", j, support[k], width)
				}
				if k > 0 && support[k] <= support[k-1] {
					t.Fatalf("block %d support not strictly increasing", j)
				}
			}
			if blk.Cols != len(support) {
				t.Fatalf("block %d compacted to %d columns, support %d", j, blk.Cols, len(support))
			}
			// Re-expand the compacted block through Need back to global
			// columns.
			for _, e := range blk.Entries() {
				rebuilt = append(rebuilt, Coord{Row: e.Row, Col: offsets[j] + plan.Need[j][e.Col], Val: e.Val})
			}
		}
		if recon := NewCSR(rows, cols, rebuilt); !Equal(recon, at, 0) {
			t.Fatal("blocks do not reassemble the original matrix")
		}

		// CompactCols round-trip on the whole matrix.
		support, compact := CompactCols(at)
		var expanded []Coord
		for _, e := range compact.Entries() {
			expanded = append(expanded, Coord{Row: e.Row, Col: support[e.Col], Val: e.Val})
		}
		if recon := NewCSR(rows, cols, expanded); !Equal(recon, at, 0) {
			t.Fatal("CompactCols expansion differs from original")
		}
	})
}
