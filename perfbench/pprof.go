package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
)

// The layer split folds a CPU profile by the package of each sample's
// leaf frame. The profile is decoded here with the standard library
// alone: runtime/pprof writes a gzipped protocol buffer whose few
// fields the split needs are read below.

// Field numbers of the profile.proto messages the split reads.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profStrings  = 6

	sampleLocation = 1
	sampleValue    = 2

	locationID   = 1
	locationLine = 4

	lineFunction = 1

	functionID   = 1
	functionName = 2
)

// layerPackages are the packages the split reports, in report order;
// every other frame folds into runtime (the Go runtime) or other.
var layerPackages = []string{
	"core", "prefetch", "btb", "bpu", "cache", "footprint", "predecode", "stream", "xrand",
	"sim", "uncore", "noc", "workload", "trace", "sample", "isa", "program", "stats",
	"harness", "dispatch", "server", "client", "spec", "store", "report",
	"runtime", "other",
}

// packageOf maps a symbol name to its layer.
func packageOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "shotgun/internal/"); ok {
		end := strings.IndexAny(rest, "./")
		if end < 0 {
			end = len(rest)
		}
		pkg := rest[:end]
		for _, p := range layerPackages {
			if p == pkg {
				return pkg
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "runtime/") ||
		strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// foldProfile returns each layer's share of the profile's CPU samples,
// in percent. The shares sum to 100.
func foldProfile(data []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var (
		strs    []string
		funcs   = map[uint64]int64{}  // function id -> name string index
		locLeaf = map[uint64]uint64{} // location id -> leaf function id
		samples []struct {
			leafLoc uint64
			count   int64
		}
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case profStrings:
			strs = append(strs, string(b))
		case profFunction:
			var id uint64
			var name int64
			err := eachField(b, func(n, _ int, v uint64, _ []byte) error {
				switch n {
				case functionID:
					id = v
				case functionName:
					name = int64(v)
				}
				return nil
			})
			funcs[id] = name
			return err
		case profLocation:
			var id, leaf uint64
			seenLine := false
			err := eachField(b, func(n, _ int, v uint64, lb []byte) error {
				switch n {
				case locationID:
					id = v
				case locationLine:
					// The first line is the innermost (inlined) frame.
					if seenLine {
						return nil
					}
					seenLine = true
					return eachField(lb, func(n, _ int, v uint64, _ []byte) error {
						if n == lineFunction {
							leaf = v
						}
						return nil
					})
				}
				return nil
			})
			locLeaf[id] = leaf
			return err
		case profSample:
			var locs, vals []uint64
			err := eachField(b, func(n, wire int, v uint64, pb []byte) error {
				switch n {
				case sampleLocation:
					locs = appendVarints(locs, wire, v, pb)
				case sampleValue:
					vals = appendVarints(vals, wire, v, pb)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(locs) > 0 && len(vals) > 0 {
				samples = append(samples, struct {
					leafLoc uint64
					count   int64
				}{locs[0], int64(vals[0])})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	byPkg := map[string]float64{}
	var total float64
	for _, s := range samples {
		name := ""
		if fn, ok := locLeaf[s.leafLoc]; ok {
			if si, ok := funcs[fn]; ok && si >= 0 && int(si) < len(strs) {
				name = strs[si]
			}
		}
		byPkg[packageOf(name)] += float64(s.count)
		total += float64(s.count)
	}
	out := make(map[string]float64, len(layerPackages))
	for _, p := range layerPackages {
		out[p] = 0
		if total > 0 {
			out[p] = 100 * byPkg[p] / total
		}
	}
	return out, nil
}

// topPackages names the n layers with the largest shares, largest first.
func topPackages(split map[string]float64, n int) []string {
	names := append([]string(nil), layerPackages...)
	sort.SliceStable(names, func(i, j int) bool { return split[names[i]] > split[names[j]] })
	if len(names) > n {
		names = names[:n]
	}
	out := make([]string, len(names))
	for i, p := range names {
		out[i] = fmt.Sprintf("%s %.1f%%", p, split[p])
	}
	return out
}

// appendVarints appends a repeated integer field's values, whether it
// arrived unpacked (one varint) or packed (a length-delimited run).
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire == 0 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errTruncated = errors.New("truncated profile")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type, and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wire int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		b = b[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errTruncated
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errTruncated
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errTruncated
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errTruncated
			}
			b = b[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, data); err != nil {
			return err
		}
	}
	return nil
}
