package comm

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// encodeFrame returns p's 'D' frame as Send would put it on the wire, with
// an acked count of 0.
func encodeFrame(t testing.TB, p Payload) []byte {
	t.Helper()
	return encodeFrameAcked(t, p, 0)
}

// encodeFrameAcked is encodeFrame with the given acked count.
func encodeFrameAcked(t testing.TB, p Payload, acked uint32) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := new(frameVec).write(&out, p, acked); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// decodeFrame decodes one whole 'D' frame from r, type byte included.
func decodeFrame(r io.Reader, arena *bufPool) (Payload, error) {
	return nextFrame(bufio.NewReaderSize(r, frameChunk), arena)
}

// nextFrame decodes the next whole 'D' frame from br, type byte included,
// as readLoop does.
func nextFrame(br *bufio.Reader, arena *bufPool) (Payload, error) {
	if typ, err := br.ReadByte(); err != nil || typ != frameData {
		return Payload{}, errors.New("not a data frame")
	}
	return readDataFrame(br, arena)
}

// samePayload reports whether two payloads agree bit for bit, nil-ness
// included.
func samePayload(a, b Payload) bool {
	if len(a.Floats) != len(b.Floats) || len(a.Ints) != len(b.Ints) ||
		(a.Floats == nil) != (b.Floats == nil) || (a.Ints == nil) != (b.Ints == nil) {
		return false
	}
	for i := range a.Floats {
		if math.Float64bits(a.Floats[i]) != math.Float64bits(b.Floats[i]) {
			return false
		}
	}
	for i := range a.Ints {
		if a.Ints[i] != b.Ints[i] {
			return false
		}
	}
	return true
}

// awkwardPayloads are the values a careless codec would canonicalize,
// truncate or mis-sign, plus the length shapes that matter: empty sides
// (which must stay nil) and a frame whose words straddle the reader's
// buffer boundary (the body starts 13 bytes into the stream, so word
// frameChunk/8 − 1 is split across two fills).
func awkwardPayloads() []Payload {
	straddle := Payload{Floats: make([]float64, frameChunk/8+3), Ints: make([]int, 5)}
	for i := range straddle.Floats {
		straddle.Floats[i] = float64(i) + 0.25
	}
	for i := range straddle.Ints {
		straddle.Ints[i] = -i
	}
	return []Payload{
		{},
		{Floats: []float64{
			math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload bits set
			math.Float64frombits(0x7ff0000000000001), // signaling NaN
			math.Float64frombits(0xfff8deadbeef0001), // negative NaN
			math.Copysign(0, -1),
			math.SmallestNonzeroFloat64,
			math.Float64frombits(0x000fffffffffffff), // largest subnormal
			math.Inf(-1),
			math.MaxFloat64,
		}},
		{Ints: []int{math.MinInt64, math.MaxInt64, -1, 0, 1 << 40}},
		{Floats: []float64{1.5}, Ints: []int{7}},
		straddle,
	}
}

// TestFrameGoldenBytes pins the 'D' frame layout byte for byte: other
// processes (a cagnet-train world of a different build) parse it.
func TestFrameGoldenBytes(t *testing.T) {
	p := Payload{Floats: []float64{1.5, math.Copysign(0, -1)}, Ints: []int{-2, 1 << 40}}
	golden := []byte{
		'D',
		2, 0, 0, 0, // u32 nFloats
		2, 0, 0, 0, // u32 nInts
		3, 1, 0, 0, // u32 acked
		0, 0, 0, 0, 0, 0, 0xf8, 0x3f, // 1.5
		0, 0, 0, 0, 0, 0, 0, 0x80, // −0
		0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, // −2
		0, 0, 0, 0, 0, 1, 0, 0, // 1<<40
	}
	if got := encodeFrameAcked(t, p, 259); !bytes.Equal(got, golden) {
		t.Fatalf("frame bytes drifted:\n got %x\nwant %x", got, golden)
	}
	got, err := decodeFrame(bytes.NewReader(golden), newBufPool())
	if err != nil || !samePayload(got, p) {
		t.Fatalf("golden frame decoded to %+v (err %v), want %+v", got, err, p)
	}
}

// TestFrameRoundTripShortReads decodes every awkward payload from a
// stream that trickles in a few bytes at a time, as a socket may: words
// and the header then straddle every fill of the reader's buffer. Each
// payload is also followed, through the same reader, by a second frame
// with a body below or above frameChunk: that body starts in whatever of
// the stream the reader's buffer already holds and, past it, goes on by
// reads straight into the arena.
func TestFrameRoundTripShortReads(t *testing.T) {
	big := Payload{Floats: make([]float64, frameChunk/8+4099), Ints: []int{-3, 1 << 50, 7}}
	for i := range big.Floats {
		big.Floats[i] = -float64(i) - 0.125
	}
	seconds := []Payload{{Floats: []float64{2.5}, Ints: []int{-9}}, big}
	for _, step := range []int{1, 7, 8, 4099, frameChunk} {
		for i, p := range awkwardPayloads() {
			frame := encodeFrame(t, p)
			got, err := decodeFrame(&trickle{data: frame, step: step}, newBufPool())
			if err != nil || !samePayload(got, p) {
				t.Fatalf("payload %d, %d-byte reads: round trip failed (err %v)", i, step, err)
			}
			// A frame cut short anywhere is an error, never a payload.
			if _, err := decodeFrame(&trickle{data: frame[:len(frame)-1], step: step}, newBufPool()); !errors.Is(err, io.ErrUnexpectedEOF) {
				t.Fatalf("payload %d, %d-byte reads: truncated frame gave err %v, want unexpected EOF", i, step, err)
			}
			for j, second := range seconds {
				stream := append(frame[:len(frame):len(frame)], encodeFrame(t, second)...)
				for _, cut := range []int{0, 1} {
					br := bufio.NewReaderSize(&trickle{data: stream[:len(stream)-cut], step: step}, frameChunk)
					arena := newBufPool()
					if got, err := nextFrame(br, arena); err != nil || !samePayload(got, p) {
						t.Fatalf("payload %d then %d, %d-byte reads, cut %d: first frame failed (err %v)", i, j, step, cut, err)
					}
					got, err := nextFrame(br, arena)
					if cut == 0 && (err != nil || !samePayload(got, second)) {
						t.Fatalf("payload %d then %d, %d-byte reads: second frame failed (err %v)", i, j, step, err)
					}
					if cut == 1 && !errors.Is(err, io.ErrUnexpectedEOF) {
						t.Fatalf("payload %d then %d, %d-byte reads: truncated second frame gave err %v, want unexpected EOF", i, j, step, err)
					}
				}
			}
		}
	}
}

// TestWireHostRule: the TCP transport runs only where a word's memory
// image is its wire encoding, and refuses any other host by name.
func TestWireHostRule(t *testing.T) {
	for _, tc := range []struct {
		littleEndian bool
		intBits      int
		ok           bool
	}{
		{true, 64, true},
		{false, 64, false},
		{true, 32, false},
	} {
		err := checkWireHost(tc.littleEndian, tc.intBits)
		if (err == nil) != tc.ok {
			t.Fatalf("checkWireHost(%v, %d) = %v, want ok %v", tc.littleEndian, tc.intBits, err, tc.ok)
		}
		if err != nil && !strings.Contains(err.Error(), "GOARCH="+runtime.GOARCH) {
			t.Fatalf("checkWireHost(%v, %d) = %q, want the host named", tc.littleEndian, tc.intBits, err)
		}
	}
}

// trickle is a reader that returns at most step bytes per Read.
type trickle struct {
	data []byte
	step int
}

func (r *trickle) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := copy(p[:min(len(p), r.step)], r.data)
	r.data = r.data[n:]
	return n, nil
}

// rawHeader is the 13 bytes that open a data frame of the given counts
// (acked 0).
func rawHeader(nFloats, nInts uint32) []byte {
	h := []byte{frameData, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(h[1:5], nFloats)
	binary.LittleEndian.PutUint32(h[5:9], nInts)
	return h
}

// TestTCPFrameLimitOnReceive: a header demanding more than maxFrameWords
// — one corrupt or hostile 13-byte write — must cost the receiver a typed
// *PeerError, not a 32 GiB allocation.
func TestTCPFrameLimitOnReceive(t *testing.T) {
	for _, tc := range []struct {
		name     string
		nf, nint uint32
	}{
		{"all-ones floats", math.MaxUint32, 0},
		{"all-ones both", math.MaxUint32, math.MaxUint32},
		{"sum just over", maxFrameWords/2 + 1, maxFrameWords / 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			trs := dialWorld(t, 2, TCPOptions{})
			trs[1].wmu[0].Lock()
			_, err := trs[1].conns[0].Write(rawHeader(tc.nf, tc.nint))
			trs[1].wmu[0].Unlock()
			if err != nil {
				t.Fatal(err)
			}
			pe := recoverPeerError(t, func() { trs[0].Recv(1) })
			if pe.Peer != 1 || pe.Rank != 0 || !strings.Contains(pe.Error(), "maxFrameWords") {
				t.Fatalf("PeerError %v; want rank 0 blaming peer 1 for an over-limit frame", pe)
			}
			if n := len(trs[0].arena.from[1].usedF) + len(trs[0].arena.from[1].usedI); n != 0 {
				t.Fatalf("receiver took %d arena buffers for a frame it rejected", n)
			}
		})
	}
}

// overLimitInts is a slice one word over maxFrameWords. Nothing reads it,
// so its pages stay unmapped — unless the runtime places it on recycled
// address space and clears it first, which is why it is made once per
// process and not once per -count iteration.
var overLimitInts = sync.OnceValue(func() []int { return make([]int, maxFrameWords+1) })

// TestTCPFrameLimitOnSend: a payload over maxFrameWords is refused with a
// message naming the limit before a byte is written (the u32 header
// counts used to truncate silently past 2³² words).
func TestTCPFrameLimitOnSend(t *testing.T) {
	trs := dialWorld(t, 2, TCPOptions{})
	huge := overLimitInts()
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, "maxFrameWords") || !strings.Contains(msg, "rank 0 sending to rank 1") {
				t.Fatalf("Send panicked %q; want a message naming the limit and the ranks", msg)
			}
		}()
		trs[0].Send(1, Payload{Ints: huge})
		t.Fatal("Send accepted a frame over maxFrameWords")
	}()
	// Nothing of the refused frame reached the wire: the connection still
	// carries an ordinary frame.
	trs[0].Send(1, Payload{Ints: huge[:3]})
	if got := trs[1].Recv(0); len(got.Ints) != 3 {
		t.Fatalf("frame after the refused one arrived as %+v", got)
	}
}

// FuzzFrameDecode: arbitrary bytes never panic the decoder, an over-limit
// header is rejected before the arena hands out anything, and any frame
// that decodes re-encodes to exactly the bytes it was decoded from.
func FuzzFrameDecode(f *testing.F) {
	for _, p := range awkwardPayloads() {
		f.Add(encodeFrame(f, p))
	}
	f.Add(rawHeader(math.MaxUint32, 1))
	f.Add(rawHeader(3, 0)) // body missing
	f.Add([]byte{frameData, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 13 || data[0] != frameData {
			decodeFrame(bytes.NewReader(data), newBufPool()) // must not panic
			return
		}
		claimed := uint64(binary.LittleEndian.Uint32(data[1:5])) + uint64(binary.LittleEndian.Uint32(data[5:9]))
		if claimed <= maxFrameWords && 8*claimed > uint64(len(data))+1<<20 {
			// Within the limit a header is entitled to its buffer even if
			// the body never arrives; skipping these only keeps the fuzzer
			// from spending its time in make().
			return
		}
		arena := newBufPool()
		p, err := decodeFrame(bytes.NewReader(data), arena)
		if claimed > maxFrameWords {
			if err == nil || len(arena.usedF)+len(arena.usedI) != 0 {
				t.Fatalf("over-limit header (%d words): err %v, %d arena buffers taken", claimed, err, len(arena.usedF)+len(arena.usedI))
			}
			return
		}
		if err != nil {
			return
		}
		if (len(p.Floats) == 0) != (p.Floats == nil) || (len(p.Ints) == 0) != (p.Ints == nil) {
			t.Fatalf("empty side not nil: %d floats (nil %v), %d ints (nil %v)", len(p.Floats), p.Floats == nil, len(p.Ints), p.Ints == nil)
		}
		if again := encodeFrameAcked(t, p, binary.LittleEndian.Uint32(data[9:13])); !bytes.Equal(again, data[:len(again)]) {
			t.Fatalf("decoded frame re-encodes differently (%d bytes)", len(again))
		}
	})
}
