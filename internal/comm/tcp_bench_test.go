package comm

import (
	"bufio"
	"bytes"
	"fmt"
	"testing"
)

// The wire frame's own numbers (ROADMAP aim 1): the codec alone, and one
// broadcast over real loopback sockets.

// BenchmarkTCPFrameCodec writes one data frame into an in-memory pipe and
// reads it back out through the reader's bufio buffer and a recycled
// arena — the per-frame CPU work of Send plus readLoop, without a socket.
// 65 536 words is bcast1d_sparse's broadcast block (4 096 rows × 16).
func BenchmarkTCPFrameCodec(b *testing.B) {
	for _, words := range []int{128, 64 << 10, 512 << 10} {
		b.Run(fmt.Sprintf("words=%d", words), func(b *testing.B) {
			p := Payload{Floats: make([]float64, words-words/8), Ints: make([]int, words/8)}
			for i := range p.Floats {
				p.Floats[i] = float64(i) * 0.5
			}
			for i := range p.Ints {
				p.Ints[i] = -i
			}
			var pipe bytes.Buffer
			pipe.Grow(13 + 8*words)
			var vec frameVec
			r := bufio.NewReaderSize(&pipe, frameChunk)
			arena := newRecvArena(1)
			frame := func() {
				pipe.Reset() // drained, but a short write would append past the old frame
				if err := vec.write(&pipe, p, 0); err != nil {
					b.Fatal(err)
				}
				r.ReadByte() // the type byte readLoop dispatches on
				got, err := readDataFrame(r, arena, 0)
				if err != nil || len(got.Floats) != len(p.Floats) || len(got.Ints) != len(p.Ints) {
					b.Fatalf("decoded %d floats, %d ints, err %v", len(got.Floats), len(got.Ints), err)
				}
				arena.recycle()
			}
			frame() // size the arena
			b.SetBytes(int64(13 + 8*words))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				frame()
			}
		})
	}
}

// BenchmarkTCPBroadcast times one 0.5 M-word world broadcast plus the
// epoch boundary at P = 4 over loopback: bcast1d_sparse's dominant
// operation. Bytes are the block size, so MB/s is what one rank sees.
func BenchmarkTCPBroadcast(b *testing.B) {
	const p = 4
	const words = 512 << 10
	cl := tcpCluster(b, p)
	block := make([]float64, words)
	for i := range block {
		block[i] = float64(i)
	}
	round := func(n int) {
		err := cl.Run(func(c *Comm) error {
			for i := 0; i < n; i++ {
				var in Payload
				if c.Rank() == 0 {
					in = Payload{Floats: block}
				}
				if got := c.World().Broadcast(0, in, CatDenseComm); len(got.Floats) != words {
					return fmt.Errorf("received %d words", len(got.Floats))
				}
				c.EpochDone()
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	round(2) // size the arenas
	b.SetBytes(8 * words)
	b.ReportAllocs()
	b.ResetTimer()
	round(b.N)
}
