package workload

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"testing"

	"shotgun/internal/isa"
	"shotgun/internal/predecode"
	"shotgun/internal/program"
)

// artifactPins holds, per profile, the SHA-256 of its generated program
// and of its predecode image. A change here means generation or
// predecoding drifted: every golden table would move with it.
var artifactPins = map[string]struct{ program, decoder string }{
	"Nutch": {
		"954fcf0857fd493668b1a8f733bfbb88e39ee9a9be1eafa2c3bda9fe4f64cde8",
		"5ee3f4e155f016b47acdfe8e2f07e548755f6082525a3ad8fdc580fe2259a0de",
	},
	"Streaming": {
		"eb62e0e007311900b5c8854e2e793182bdb4cea18229a7e81df34ddbf4891dd5",
		"8134fa9d341f377c74fb07209512e7ad9b3dbce43645387f0d1db3153b43e4f6",
	},
	"Apache": {
		"f4d7fa98a5047e2f9bef12fd0e1038b2d307460b1f74f4c49cf0fb6736003432",
		"4f177da86ef204a8e5dc04d9cf12e36b83748d4245ba5a12f05fe92c7fedc09c",
	},
	"Zeus": {
		"e948591b8767244d816eee5c3d685838e0461e6cf6b48e817794610606cbda7d",
		"0e46da38c5cde09167960b86905b830c169b14143771c33b8fde737aac6be31f",
	},
	"Oracle": {
		"9017f8a0fdc22caeeab7e979b8051485e93e899b71f301c50e35a45850a567c4",
		"13b9611b633808e67e66bbba66b3616efeae4ee8b4c1772037767ec86ba29a50",
	},
	"DB2": {
		"4cf1426826fb05c224c96a93144eff7cd2f59ce8e8c35eaec758b314f191f9d1",
		"f4879149d77a751d6faef1637e43016bca8d2c604fd3e24a30ef8f207619355b",
	},
}

// TestProfileArtifactsPinned pins each profile's program and predecode
// image bit for bit, so a generator or decoder drift fails here by
// profile, in well under a second, instead of as golden-table diffs.
func TestProfileArtifactsPinned(t *testing.T) {
	for _, p := range Profiles() {
		prog := p.Program()
		gotProg := hashProgram(prog)
		gotDec := hashDecoder(prog, p.Decoder())
		want := artifactPins[p.Name]
		if gotProg != want.program {
			t.Errorf("%s program hash = %s, want %s", p.Name, gotProg, want.program)
		}
		if gotDec != want.decoder {
			t.Errorf("%s decoder hash = %s, want %s", p.Name, gotDec, want.decoder)
		}
	}
}

func put(h hash.Hash, vs ...uint64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// hashProgram hashes every function's identity and layer and every
// static block's fields.
func hashProgram(prog *program.Program) string {
	h := sha256.New()
	for _, f := range prog.Funcs {
		put(h, uint64(f.ID), uint64(f.Role), uint64(f.Layer), uint64(len(f.Blocks)))
		for bi, b := range f.Blocks {
			put(h, uint64(f.BlockPC(bi)), uint64(b.NumInstr), uint64(b.Kind), uint64(b.TargetIdx),
				uint64(b.Callee), math.Float64bits(b.Bias()), b2u(b.IsLoop),
				math.Float64bits(b.LoopMeanIters()), b2u(b.LoopFixed))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// hashDecoder hashes Decode over every cache block of the application
// and kernel images, from each image's first code block to its last,
// which covers every block of every decoder segment.
func hashDecoder(prog *program.Program, dec *predecode.Decoder) string {
	type extent struct{ lo, hi isa.Addr }
	var images [2]extent
	for _, f := range prog.Funcs {
		img := &images[0]
		if f.Role != program.RoleApp {
			img = &images[1]
		}
		if img.hi == 0 || f.Entry() < img.lo {
			img.lo = f.Entry()
		}
		img.hi = max(img.hi, f.End())
	}
	h := sha256.New()
	put(h, uint64(dec.Blocks()))
	for _, img := range images {
		for cb := img.lo.Block(); cb < img.hi; cb += isa.BlockBytes {
			brs := dec.Decode(cb)
			put(h, uint64(cb), uint64(len(brs)))
			for _, br := range brs {
				put(h, uint64(br.BlockPC(cb)), uint64(br.NumInstr), uint64(br.Kind), uint64(br.Target))
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
