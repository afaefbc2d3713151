package trace

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/iotest"

	"shotgun/internal/isa"
	"shotgun/internal/program"
	"shotgun/internal/workload"
)

// FuzzReader feeds arbitrary bytes to the trace decoder and holds it
// to refReader, the byte-at-a-time decoder it replaced: for every input
// and source behaviour, Reader.Read one block at a time and
// Reader.ReadBlocks at random batch sizes must both yield the
// reference's block sequence and end in the reference's error, which
// then stays sticky. Truncated or corrupt varint streams must surface as
// errors, never as panics or non-terminating loops. The CI fuzz-smoke
// job runs this for a bounded wall-clock slice on every push.
func FuzzReader(f *testing.F) {
	// Seed with a real trace and interesting mutations of it.
	prog := program.MustGenerate(program.GenParams{NumAppFuncs: 60, NumKernelFuncs: 16}, 1)
	w := workload.NewWalker(prog, 11)
	var buf bytes.Buffer
	tw, err := NewWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := tw.Write(w.Next()); err != nil {
			f.Fatal(err)
		}
	}
	if err := tw.Flush(); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	mutated := append([]byte(nil), valid...)
	mutated[10] ^= 0xff
	for i, data := range [][]byte{
		valid,
		valid[:len(valid)-1],       // truncated final record
		valid[:6],                  // truncated first record
		valid[:5],                  // header only
		{},                         // empty
		[]byte("SGTR"),             // short header
		[]byte("SGTR\x01\xff\xff"), // varint runs off the end
		[]byte("SGTR\x01\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x02\x01"), // varint overflows
		mutated,
	} {
		for mode := range uint8(srcModes) {
			f.Add(data, mode, uint64(i)*0x9e3779b97f4a7c15+uint64(len(data)/2))
		}
	}

	f.Fuzz(func(t *testing.T, data []byte, mode uint8, seed uint64) {
		want, wantErr := refDecode(fuzzSource(data, mode, seed))
		got, gotErr := decodeEach(t, fuzzSource(data, mode, seed))
		checkSame(t, "Read", want, wantErr, got, gotErr)
		got, gotErr = decodeBatches(t, fuzzSource(data, mode, seed), seed)
		checkSame(t, "ReadBlocks", want, wantErr, got, gotErr)
		// Every record takes at least three bytes.
		if 3*len(want) > len(data) {
			t.Fatalf("%d blocks decoded from %d bytes", len(want), len(data))
		}
	})
}

// srcModes counts the source behaviours fuzzSource picks between.
const srcModes = 4

// errCut is the error a cut source returns in place of its remaining
// bytes.
var errCut = errors.New("source cut")

// cutReader yields data[:cut] and then fails with errCut, wherever the
// caller's reads fall, so both decoders meet the error at the same byte.
type cutReader struct {
	data []byte
	cut  int
}

func (r *cutReader) Read(p []byte) (int, error) {
	if r.cut == 0 {
		return 0, errCut
	}
	n := copy(p, r.data[:r.cut])
	r.data, r.cut = r.data[n:], r.cut-n
	return n, nil
}

// fuzzSource serves data as a plain reader, one byte per read, with the
// final bytes and io.EOF in one read, or cut short by a non-EOF error.
func fuzzSource(data []byte, mode uint8, seed uint64) io.Reader {
	switch mode % srcModes {
	case 1:
		return iotest.OneByteReader(bytes.NewReader(data))
	case 2:
		return iotest.DataErrReader(bytes.NewReader(data))
	case 3:
		return &cutReader{data: data, cut: int(seed % uint64(len(data)+1))}
	}
	return bytes.NewReader(data)
}

// refDecode decodes r to its terminal error with the reference decoder.
func refDecode(r io.Reader) ([]isa.BasicBlock, error) {
	ref, err := newRefReader(r)
	if err != nil {
		return nil, err
	}
	var out []isa.BasicBlock
	for {
		bb, err := ref.Read()
		if err != nil {
			return out, err
		}
		out = append(out, bb)
	}
}

// decodeEach decodes r to its terminal error one Read at a time.
func decodeEach(t *testing.T, r io.Reader) ([]isa.BasicBlock, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []isa.BasicBlock
	for {
		bb, err := tr.Read()
		if err != nil {
			// Once failed, the reader must stay failed (no resurrection
			// mid-corruption).
			if _, err2 := tr.Read(); err2 != err {
				t.Fatalf("Read after %v returned %v", err, err2)
			}
			return out, err
		}
		out = append(out, bb)
	}
}

// decodeBatches decodes r to its terminal error through ReadBlocks, with
// batch sizes drawn from seed.
func decodeBatches(t *testing.T, r io.Reader, seed uint64) ([]isa.BasicBlock, error) {
	tr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	var out []isa.BasicBlock
	var dst [17]isa.BasicBlock
	short := false // the last batch stopped early, so this call must fail
	for x := seed | 1; ; {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		size := int(x % uint64(len(dst)+1)) // 0 included: a no-op call
		n, err := tr.ReadBlocks(dst[:size])
		if err != nil {
			if n != 0 {
				t.Fatalf("ReadBlocks returned %d blocks with %v", n, err)
			}
			if n2, err2 := tr.ReadBlocks(dst[:]); n2 != 0 || err2 != err {
				t.Fatalf("ReadBlocks after %v returned %d, %v", err, n2, err2)
			}
			return out, err
		}
		if short {
			t.Fatalf("ReadBlocks returned %d blocks after a short batch", n)
		}
		short = n < size
		out = append(out, dst[:n]...)
	}
}

// checkSame fails unless a decode matched the reference block for block
// and ended in the same error.
func checkSame(t *testing.T, how string, want []isa.BasicBlock, wantErr error, got []isa.BasicBlock, gotErr error) {
	t.Helper()
	if errClass(gotErr) != errClass(wantErr) {
		t.Fatalf("%s: ended in %v after %d blocks, reference in %v after %d",
			how, gotErr, len(got), wantErr, len(want))
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d blocks, reference %d", how, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: block %d is %+v, reference %+v", how, i, got[i], want[i])
		}
	}
}

// errClass names an error for comparison. The two decoders' overflow
// errors differ only in wording; every other error must match exactly.
func errClass(err error) string {
	switch {
	case err == nil:
		return "no error"
	case strings.Contains(err.Error(), "varint overflows a 64-bit integer"):
		return "varint overflow"
	}
	return err.Error()
}
