// Package checkpoint persists training state so a crashed run resumes
// where it stopped instead of losing every completed epoch. A snapshot
// holds exactly the state the engine needs to continue bit-identically:
// the weights, the optimizer's internal buffers and step count, the epoch
// counter, the per-epoch metric history, and the RNG seed (weight init is
// the only stochastic draw in training, so the seed plus the epoch count
// fully determines the stream).
//
// Snapshots are written atomically — encoded to a temp file in the target
// directory, fsynced, then renamed into place — so a crash mid-write can
// never leave a half-written file where Latest would find it. Every file
// is versioned and checksummed; Load refuses anything torn, truncated, or
// from a different format version. Float64 values round-trip as raw bit
// patterns, which is what makes resume-then-train digit-for-digit
// identical to an uninterrupted run.
package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/dense"
)

// Options configures checkpointing on a training run. The zero value
// disables it.
type Options struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Every is the epoch interval between snapshots; <= 0 with Dir set
	// means only the final snapshot is written.
	Every int
	// Keep bounds how many snapshot files stay in Dir: after each
	// successful Save the oldest files beyond the newest Keep are pruned.
	// <= 0 keeps everything.
	Keep int
}

// Enabled reports whether checkpointing is on.
func (o Options) Enabled() bool { return o.Dir != "" }

// Validate rejects snapshot knobs set without a directory, which would
// write nothing.
func (o Options) Validate() error {
	if !o.Enabled() && (o.Every > 0 || o.Keep > 0) {
		return fmt.Errorf("checkpoint: Every=%d Keep=%d without a Dir would write nothing: set Checkpoint.Dir or leave both zero", o.Every, o.Keep)
	}
	return nil
}

// Snapshot is the complete resumable state of a training run after
// Epoch epochs.
type Snapshot struct {
	// Epoch is the number of completed epochs.
	Epoch int
	// Seed is the run's RNG seed (the weight-init stream).
	Seed int64
	// Weights are the layer weight matrices.
	Weights []*dense.Matrix
	// OptName identifies the optimizer ("sgd", "momentum", "adam"); a
	// resume under a different optimizer is refused.
	OptName string
	// OptStep is the optimizer's step counter (Adam's t).
	OptStep int
	// OptState are the optimizer's internal buffers in Snapshot order
	// (e.g. Adam's first-moment then second-moment matrices).
	OptState []*dense.Matrix
	// Losses, TrainAcc, ValAcc are the per-epoch metric histories, each
	// of length Epoch (accuracy slices may be empty when not tracked).
	Losses   []float64
	TrainAcc []float64
	ValAcc   []float64
	// World and Algorithm record the run that wrote the snapshot. They
	// are advisory: the state itself (replicated weights + optimizer) is
	// world-size-independent, so an elastic resume at a different world
	// size or decomposition is legal — the fields exist so such a resume
	// can be reported, and so tooling can inspect where a file came from.
	World     int
	Algorithm string
}

// File format: an 16-byte header — 8-byte magic (which pins the format
// major version), u32 payload CRC32 (IEEE), u32 payload length — then the
// payload. All integers little-endian; floats as IEEE-754 bit patterns.
// Version 2 appended the advisory World/Algorithm trailer to the payload.
var magic = [8]byte{'C', 'A', 'G', 'C', 'K', 'P', 'T', formatVersion}

const (
	headerLen     = 16
	formatVersion = 2
)

// Save atomically writes a snapshot into dir, creating it if needed, and
// returns the written path. Files are named ckpt-%08d.ckpt by epoch so
// Latest can pick the newest without opening them.
func Save(dir string, s *Snapshot) (string, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	payload := encode(s)
	var hdr [headerLen]byte
	copy(hdr[:8], magic[:])
	binary.LittleEndian.PutUint32(hdr[8:12], crc32.ChecksumIEEE(payload))
	binary.LittleEndian.PutUint32(hdr[12:16], uint32(len(payload)))

	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op once renamed
	if _, err := tmp.Write(hdr[:]); err == nil {
		_, err = tmp.Write(payload)
	}
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("checkpoint: writing %s: %w", tmp.Name(), err)
	}
	path := filepath.Join(dir, fmt.Sprintf("ckpt-%08d.ckpt", s.Epoch))
	if err := os.Rename(tmp.Name(), path); err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	return path, nil
}

// Latest returns the path of the highest-epoch checkpoint in dir, or ""
// when dir holds none (including when dir does not exist — a fresh run's
// first epoch has nothing to resume from).
func Latest(dir string) (string, error) {
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		return "", fmt.Errorf("checkpoint: %w", err)
	}
	if len(names) == 0 {
		return "", nil
	}
	// Zero-padded epoch numbers sort lexically.
	sort.Strings(names)
	return names[len(names)-1], nil
}

// Prune deletes all but the newest keep checkpoint files in dir, so long
// elastic runs snapshotting every epoch don't grow the directory without
// bound. keep <= 0 keeps everything. The newest file — the one Latest
// would return — is never removed, and a file that vanishes under
// Prune's feet (a concurrent prune) is skipped, not an error.
func Prune(dir string, keep int) error {
	if keep <= 0 {
		return nil
	}
	names, err := filepath.Glob(filepath.Join(dir, "ckpt-*.ckpt"))
	if err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	if len(names) <= keep {
		return nil
	}
	sort.Strings(names)
	for _, name := range names[:len(names)-keep] {
		if err := os.Remove(name); err != nil && !os.IsNotExist(err) {
			return fmt.Errorf("checkpoint: pruning %s: %w", name, err)
		}
	}
	return nil
}

// Load reads and verifies one snapshot. It fails loudly on a bad magic,
// format version, length, or checksum — a corrupt checkpoint must never
// silently resume training from garbage.
func Load(path string) (*Snapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	if len(raw) < headerLen || !bytes.Equal(raw[:7], magic[:7]) {
		return nil, fmt.Errorf("checkpoint: %s: not a checkpoint file (bad magic)", path)
	}
	if raw[7] != formatVersion {
		return nil, fmt.Errorf("checkpoint: %s: format version %d, this build reads only version %d", path, raw[7], formatVersion)
	}
	sum := binary.LittleEndian.Uint32(raw[8:12])
	n := int(binary.LittleEndian.Uint32(raw[12:16]))
	payload := raw[headerLen:]
	if len(payload) != n {
		return nil, fmt.Errorf("checkpoint: %s: truncated payload (%d bytes, header says %d)", path, len(payload), n)
	}
	if got := crc32.ChecksumIEEE(payload); got != sum {
		return nil, fmt.Errorf("checkpoint: %s: checksum mismatch (file %08x, computed %08x)", path, sum, got)
	}
	s, err := decode(payload)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %s: %w", path, err)
	}
	return s, nil
}

// encode serializes the snapshot payload.
func encode(s *Snapshot) []byte {
	var b bytes.Buffer
	putU32 := func(v int) {
		var u [4]byte
		binary.LittleEndian.PutUint32(u[:], uint32(v))
		b.Write(u[:])
	}
	putU64 := func(v uint64) {
		var u [8]byte
		binary.LittleEndian.PutUint64(u[:], v)
		b.Write(u[:])
	}
	putFloats := func(fs []float64) {
		putU32(len(fs))
		for _, f := range fs {
			putU64(math.Float64bits(f))
		}
	}
	putMats := func(ms []*dense.Matrix) {
		putU32(len(ms))
		for _, m := range ms {
			putU32(m.Rows)
			putU32(m.Cols)
			for _, f := range m.Data {
				putU64(math.Float64bits(f))
			}
		}
	}
	putU32(s.Epoch)
	putU64(uint64(s.Seed))
	putU32(len(s.OptName))
	b.WriteString(s.OptName)
	putU32(s.OptStep)
	putFloats(s.Losses)
	putFloats(s.TrainAcc)
	putFloats(s.ValAcc)
	putMats(s.Weights)
	putMats(s.OptState)
	// Version-2 advisory trailer.
	putU32(s.World)
	putU32(len(s.Algorithm))
	b.WriteString(s.Algorithm)
	return b.Bytes()
}

// decode parses an encoded payload. The checksum has already vouched for
// the bytes, so decode errors indicate a format bug, not corruption — but
// every length is still bounds-checked.
func decode(payload []byte) (*Snapshot, error) {
	r := bytes.NewReader(payload)
	var err error
	getU32 := func() int {
		var u [4]byte
		if _, e := io.ReadFull(r, u[:]); e != nil && err == nil {
			err = e
		}
		return int(binary.LittleEndian.Uint32(u[:]))
	}
	getU64 := func() uint64 {
		var u [8]byte
		if _, e := io.ReadFull(r, u[:]); e != nil && err == nil {
			err = e
		}
		return binary.LittleEndian.Uint64(u[:])
	}
	getFloats := func() []float64 {
		n := getU32()
		if err != nil || n < 0 || 8*n > r.Len() {
			if err == nil {
				err = fmt.Errorf("float block of %d exceeds payload", n)
			}
			return nil
		}
		if n == 0 {
			return nil
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = math.Float64frombits(getU64())
		}
		return fs
	}
	getMats := func() []*dense.Matrix {
		n := getU32()
		if err != nil || n < 0 || n > r.Len() {
			if err == nil {
				err = fmt.Errorf("matrix block of %d exceeds payload", n)
			}
			return nil
		}
		ms := make([]*dense.Matrix, 0, n)
		for i := 0; i < n; i++ {
			rows, cols := getU32(), getU32()
			// The element-count bound is phrased as a division so a huge
			// rows×cols pair cannot overflow into a small product and pair
			// an enormous claimed shape with an empty Data slice.
			if err != nil || rows < 0 || cols < 0 ||
				(rows > 0 && cols > (r.Len()/8)/rows) {
				if err == nil {
					err = fmt.Errorf("matrix %dx%d exceeds payload", rows, cols)
				}
				return nil
			}
			m := dense.New(rows, cols)
			for j := range m.Data {
				m.Data[j] = math.Float64frombits(getU64())
			}
			ms = append(ms, m)
		}
		return ms
	}
	s := &Snapshot{}
	s.Epoch = getU32()
	s.Seed = int64(getU64())
	nameLen := getU32()
	if err == nil && (nameLen < 0 || nameLen > r.Len()) {
		err = fmt.Errorf("name length %d exceeds payload", nameLen)
	}
	if err == nil {
		name := make([]byte, nameLen)
		if _, e := io.ReadFull(r, name); e != nil {
			err = e
		}
		s.OptName = string(name)
	}
	s.OptStep = getU32()
	s.Losses = getFloats()
	s.TrainAcc = getFloats()
	s.ValAcc = getFloats()
	s.Weights = getMats()
	s.OptState = getMats()
	s.World = getU32()
	algoLen := getU32()
	if err == nil && (algoLen < 0 || algoLen > r.Len()) {
		err = fmt.Errorf("algorithm length %d exceeds payload", algoLen)
	}
	if err == nil {
		algo := make([]byte, algoLen)
		if _, e := io.ReadFull(r, algo); e != nil {
			err = e
		}
		s.Algorithm = string(algo)
	}
	if err != nil {
		return nil, err
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%d trailing bytes after snapshot", r.Len())
	}
	return s, nil
}
