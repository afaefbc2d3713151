package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"shotgun/internal/isa"
)

// refReader is the byte-at-a-time decoder Reader replaced: bufio plus
// binary.ReadUvarint, one field at a time. It is kept only as the
// reference FuzzReader holds Reader to, block for block and error for
// error.
type refReader struct {
	r      *bufio.Reader
	prevPC isa.Addr
	err    error
}

func newRefReader(r io.Reader) (*refReader, error) {
	br := bufio.NewReader(r)
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: short header: %w", err)
	}
	if [4]byte{hdr[0], hdr[1], hdr[2], hdr[3]} != magic {
		return nil, errors.New("trace: bad magic")
	}
	if hdr[4] != Version {
		return nil, fmt.Errorf("trace: unsupported version %d", hdr[4])
	}
	return &refReader{r: br}, nil
}

func (t *refReader) Read() (isa.BasicBlock, error) {
	if t.err != nil {
		return isa.BasicBlock{}, t.err
	}
	flags, err := t.r.ReadByte()
	if err != nil {
		t.err = err
		return isa.BasicBlock{}, err
	}
	var bb isa.BasicBlock
	bb.Kind = isa.BranchKind(flags & 0x7)
	bb.Taken = flags&0x8 != 0
	d, err := binary.ReadUvarint(t.r)
	if err != nil {
		t.err = refFail(err)
		return isa.BasicBlock{}, t.err
	}
	bb.PC = isa.Addr(int64(t.prevPC) + unzigzag(d))
	size, err := t.r.ReadByte()
	if err != nil {
		t.err = refFail(err)
		return isa.BasicBlock{}, t.err
	}
	bb.NumInstr = int(size)
	if bb.Taken {
		d, err = binary.ReadUvarint(t.r)
		if err != nil {
			t.err = refFail(err)
			return isa.BasicBlock{}, t.err
		}
		bb.Target = isa.Addr(int64(bb.PC) + unzigzag(d))
	}
	t.prevPC = bb.PC
	if err := bb.Validate(); err != nil {
		t.err = err
		return isa.BasicBlock{}, err
	}
	return bb, nil
}

// refFail maps unexpected EOFs mid-record to a corruption error.
func refFail(err error) error {
	if errors.Is(err, io.EOF) {
		return io.ErrUnexpectedEOF
	}
	return err
}
