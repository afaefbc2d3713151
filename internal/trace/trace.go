// Package trace defines the on-disk basic-block trace format used by
// cmd/tracegen: a varint-delta-encoded binary stream of retired basic
// blocks. Traces are a convenience for inspecting and exchanging
// workloads; simulations normally generate blocks on the fly from the
// deterministic walker.
//
// Format:
//
//	magic "SGTR" | version u8 | records...
//	record: flags u8 | pcDelta zigzag-varint | numInstr u8 |
//	        targetDelta zigzag-varint (only if taken)
//
// flags: bits 0-2 = BranchKind, bit 3 = taken. Deltas are relative to
// the previous block's PC, which compresses the mostly-local instruction
// stream well.
package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"shotgun/internal/isa"
)

var magic = [4]byte{'S', 'G', 'T', 'R'}

// Version is the current format version.
const Version = 1

// Writer streams basic blocks to an io.Writer.
type Writer struct {
	w      *bufio.Writer
	prevPC isa.Addr
	n      uint64
	buf    [2 * binary.MaxVarintLen64]byte
	began  bool
}

// NewWriter builds a writer and emits the header.
func NewWriter(w io.Writer) (*Writer, error) {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return nil, err
	}
	if err := bw.WriteByte(Version); err != nil {
		return nil, err
	}
	return &Writer{w: bw}, nil
}

func zigzag(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }

// Write appends one basic block.
func (t *Writer) Write(bb isa.BasicBlock) error {
	if err := bb.Validate(); err != nil {
		return err
	}
	flags := byte(bb.Kind) & 0x7
	if bb.Taken {
		flags |= 0x8
	}
	if err := t.w.WriteByte(flags); err != nil {
		return err
	}
	n := binary.PutUvarint(t.buf[:], zigzag(int64(bb.PC)-int64(t.prevPC)))
	if _, err := t.w.Write(t.buf[:n]); err != nil {
		return err
	}
	if err := t.w.WriteByte(byte(bb.NumInstr)); err != nil {
		return err
	}
	if bb.Taken {
		n = binary.PutUvarint(t.buf[:], zigzag(int64(bb.Target)-int64(bb.PC)))
		if _, err := t.w.Write(t.buf[:n]); err != nil {
			return err
		}
	}
	t.prevPC = bb.PC
	t.n++
	t.began = true
	return nil
}

// Blocks returns the number of blocks written.
func (t *Writer) Blocks() uint64 { return t.n }

// Flush flushes buffered output.
func (t *Writer) Flush() error { return t.w.Flush() }

// Reader decodes basic blocks from an io.Reader. Read returns one block
// and ReadBlocks a batch; both report io.EOF once the trace ends at a
// record boundary, io.ErrUnexpectedEOF if it ends mid-record, and every
// error is sticky. Every decoded block is validated. The Reader decodes
// from its own fixed window of readWindow bytes, so its memory is
// independent of trace length.
type Reader struct {
	src io.Reader
	// srcErr is the first error src returned. The bytes read before it
	// are decoded first; it surfaces when a record needs bytes past them.
	srcErr error
	// buf[pos:end] holds the read but not yet decoded bytes.
	pos, end int
	prevPC   isa.Addr
	err      error
	buf      [readWindow]byte
}

const (
	// readWindow is the Reader's byte window; each refill asks the
	// source for as much of it as is free.
	readWindow = 4096
	// maxRecordBytes bounds one encoded record: flags, two varints and
	// the instruction count. A window holding this many bytes always
	// holds a whole record or its decode error.
	maxRecordBytes = 1 + 2*binary.MaxVarintLen64 + 1
	// maxEmptyReads is how many (0, nil) reads in a row fail a refill
	// with io.ErrNoProgress, as bufio does.
	maxEmptyReads = 100
)

// errVarintOverflow reports a varint longer than 64 bits.
var errVarintOverflow = errors.New("trace: varint overflows a 64-bit integer")

// errShort marks a record that runs past the bytes the source supplied;
// decode maps it to the source's error (see fail).
var errShort = errors.New("trace: record runs past the window")

// NewReader validates the header and builds a reader.
func NewReader(r io.Reader) (*Reader, error) {
	t := new(Reader)
	if err := t.reset(r); err != nil {
		return nil, err
	}
	return t, nil
}

// reset points the reader at the start of a new trace on r, discarding
// the window and any error, and validates the header.
func (t *Reader) reset(r io.Reader) error {
	t.src, t.srcErr, t.pos, t.end, t.prevPC, t.err = r, nil, 0, 0, 0, nil
	const hdrLen = len(magic) + 1
	t.fill(hdrLen)
	if t.end < hdrLen {
		err := t.srcErr
		if err == io.EOF && t.end > 0 {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("trace: short header: %w", err)
	}
	hdr := t.buf[:hdrLen]
	if [4]byte(hdr) != magic {
		return errors.New("trace: bad magic")
	}
	if hdr[4] != Version {
		return fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	t.pos = hdrLen
	return nil
}

// fill moves the undecoded bytes to the front of the window and reads
// from the source until the window holds at least need bytes or the
// source fails.
func (t *Reader) fill(need int) {
	if t.pos > 0 {
		t.end = copy(t.buf[:], t.buf[t.pos:t.end])
		t.pos = 0
	}
	for empty := 0; t.end < need && t.srcErr == nil; {
		n, err := t.src.Read(t.buf[t.end:])
		t.end += n
		switch {
		case err != nil:
			t.srcErr = err
		case n > 0:
			empty = 0
		default:
			if empty++; empty == maxEmptyReads {
				t.srcErr = io.ErrNoProgress
			}
		}
	}
}

func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// Read returns the next block, or an error (io.EOF at end of stream).
func (t *Reader) Read() (isa.BasicBlock, error) {
	var one [1]isa.BasicBlock
	if _, err := t.ReadBlocks(one[:]); err != nil {
		return isa.BasicBlock{}, err
	}
	return one[0], nil
}

// ReadBlocks decodes up to len(dst) blocks into dst and returns how many
// it decoded. It returns an error only with no blocks: a batch that
// meets the end of the trace or a decode error returns the blocks before
// it, and the next call reports the error.
func (t *Reader) ReadBlocks(dst []isa.BasicBlock) (int, error) {
	if t.err != nil {
		return 0, t.err
	}
	for n := range dst {
		if t.end-t.pos < maxRecordBytes && t.srcErr == nil {
			t.fill(maxRecordBytes)
		}
		if err := t.decode(&dst[n]); err != nil {
			t.err = err
			if n > 0 {
				return n, nil
			}
			return 0, err
		}
	}
	return len(dst), nil
}

// decode consumes and validates the record at the head of the window,
// decoding it into bb. The window holds maxRecordBytes or everything the
// source had left, so a record that runs past it was cut short by the
// source.
func (t *Reader) decode(bb *isa.BasicBlock) error {
	b := t.buf[t.pos:t.end]
	if len(b) == 0 {
		return t.srcErr // the source ended at a record boundary
	}
	flags := b[0]
	d, i, err := uvarint(b, 1)
	if err != nil {
		return t.fail(err)
	}
	if i == len(b) {
		return t.fail(errShort)
	}
	*bb = isa.BasicBlock{
		PC:       isa.Addr(int64(t.prevPC) + unzigzag(d)),
		NumInstr: int(b[i]),
		Kind:     isa.BranchKind(flags & 0x7),
		Taken:    flags&0x8 != 0,
	}
	i++
	if bb.Taken {
		if d, i, err = uvarint(b, i); err != nil {
			return t.fail(err)
		}
		bb.Target = isa.Addr(int64(bb.PC) + unzigzag(d))
	}
	t.pos += i
	t.prevPC = bb.PC
	return bb.Validate()
}

// uvarint decodes the varint at b[i:], returning it and the index past
// it. It overflows exactly where binary.ReadUvarint does, and returns
// errShort if b ends first.
func uvarint(b []byte, i int) (uint64, int, error) {
	var x uint64
	var s uint
	for k := 0; k < binary.MaxVarintLen64; k++ {
		if i == len(b) {
			return 0, i, errShort
		}
		c := b[i]
		i++
		if c < 0x80 {
			if k == binary.MaxVarintLen64-1 && c > 1 {
				return 0, i, errVarintOverflow
			}
			return x | uint64(c)<<s, i, nil
		}
		x |= uint64(c&0x7f) << s
		s += 7
	}
	return 0, i, errVarintOverflow
}

// fail maps a record cut short by the source to the source's error,
// with an end of input mid-record reported as io.ErrUnexpectedEOF.
func (t *Reader) fail(err error) error {
	if err != errShort {
		return err
	}
	if errors.Is(t.srcErr, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return t.srcErr
}
