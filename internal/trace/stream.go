package trace

import (
	"fmt"
	"io"

	"shotgun/internal/isa"
)

// Stream adapts a recorded trace to the endless retire-order contract
// of workload.Stream (it satisfies that interface structurally, without
// importing the package), so traces recorded by cmd/tracegen can drive
// simulations. The trace is validated end-to-end once at construction;
// afterwards Next serves blocks from a fixed batch of streamBatch
// decoded blocks, refilled in one ReadBlocks call from the Reader's
// fixed byte window — memory stays bounded by those two constants
// regardless of trace length — and the stream loops by seeking back to
// the start when it runs out.
type Stream struct {
	src io.ReadSeeker
	r   *Reader

	// batch[pos:n] are the decoded blocks Next has yet to serve.
	batch  [streamBatch]isa.BasicBlock
	pos, n int

	// blocks is the validated per-pass block count; Loops counts
	// completed passes (useful for tests and diagnostics).
	blocks uint64
	Loops  uint64
}

// streamBatch is how many decoded blocks a Stream holds at once.
const streamBatch = 256

// NewStream validates the whole trace (header and every record) and
// returns a stream positioned at the first block. The source is seeked
// to its start first, so a reader a previous consumer left mid-trace
// is fine. A trace with no blocks cannot loop and is rejected.
func NewStream(src io.ReadSeeker) (*Stream, error) {
	if _, err := src.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("trace: seek to start: %w", err)
	}
	r, err := NewReader(src)
	if err != nil {
		return nil, err
	}
	s := &Stream{src: src, r: r}
	for {
		n, err := r.ReadBlocks(s.batch[:])
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("trace: record %d: %w", s.blocks, err)
		}
		s.blocks += uint64(n)
	}
	if s.blocks == 0 {
		return nil, fmt.Errorf("trace: empty trace cannot drive a simulation")
	}
	if err := s.rewind(); err != nil {
		return nil, err
	}
	return s, nil
}

// Blocks returns the number of blocks in one pass of the trace.
func (s *Stream) Blocks() uint64 { return s.blocks }

// rewind seeks the source back to the start, re-reads the header and
// empties the batch. Deltas restart from zero exactly as the writer
// emitted them, so every pass decodes the identical block sequence.
func (s *Stream) rewind() error {
	if _, err := s.src.Seek(0, io.SeekStart); err != nil {
		return fmt.Errorf("trace: rewind: %w", err)
	}
	s.pos, s.n = 0, 0
	return s.r.reset(s.src)
}

// Next returns the next block, looping at end of trace. The trace was
// fully validated by NewStream, so a decode error here means the
// underlying source changed mid-simulation — unrecoverable, and
// Next has no error channel — so it panics with context.
func (s *Stream) Next() isa.BasicBlock {
	if s.pos == s.n {
		s.refill()
	}
	bb := s.batch[s.pos]
	s.pos++
	return bb
}

// refill decodes the next batch, rewinding at the end of a pass.
func (s *Stream) refill() {
	n, err := s.r.ReadBlocks(s.batch[:])
	if err == io.EOF {
		s.Loops++
		if err := s.rewind(); err != nil {
			panic(fmt.Sprintf("trace: stream source changed mid-run: %v", err))
		}
		n, err = s.r.ReadBlocks(s.batch[:])
	}
	if err != nil {
		panic(fmt.Sprintf("trace: stream source changed mid-run: %v", err))
	}
	s.pos, s.n = 0, n
}
