package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuPackages are the buckets of the cpu.<pkg> shares: every package of
// the program, "thoth" for the root package, "bench" for the
// benchmark's own code, and "runtime" for samples with no program frame
// at all (garbage collection, scheduling). Samples are charged to the
// innermost program package on the stack, so time in the standard
// library counts against the program package that called it.
var cpuPackages = []string{
	"thoth", "harness", "workload", "llc", "core", "scheme", "pub", "bitpack",
	"crypt", "bmt", "cache", "wpq", "nvm", "engine", "loadgen", "recovery",
	"obs", "metrics", "ctr", "macs", "layout", "sim", "stats", "config",
	"bench", "runtime", "other",
}

// chargePackage maps a function name to its cpu.<pkg> bucket, or ""
// when the frame belongs to no program package.
func chargePackage(fn string) string {
	switch {
	case strings.HasPrefix(fn, "repro/internal/"):
		p := strings.TrimPrefix(fn, "repro/internal/")
		if i := strings.IndexAny(p, "./"); i >= 0 {
			p = p[:i]
		}
		for _, k := range cpuPackages {
			if k == p {
				return p
			}
		}
		return "other"
	case strings.HasPrefix(fn, "repro."):
		return "thoth"
	case strings.HasPrefix(fn, "main."), strings.HasPrefix(fn, "repro/perfbench."):
		// The benchmark is package main in its binary and
		// repro/perfbench in its test binary.
		return "bench"
	}
	return ""
}

// cpuShares decodes a gzipped pprof CPU profile and adds each sample's
// count to the bucket of the innermost program frame on its stack.
func cpuShares(prof []byte, into map[string]int64) error {
	zr, err := gzip.NewReader(bytes.NewReader(prof))
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	var (
		strs      []string
		funcName  = map[uint64]int64{}    // function id → string index
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		sampleLoc [][]uint64
		sampleCnt []int64
	)
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 2: // sample
			var locs []uint64
			var vals []int64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(wire, v, b, func(x uint64) { locs = append(locs, x) })
				case 2:
					return eachVarint(wire, v, b, func(x uint64) { vals = append(vals, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) == 0 {
				return errors.New("sample without values")
			}
			sampleLoc = append(sampleLoc, locs)
			sampleCnt = append(sampleCnt, vals[0])
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, wire int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, wire int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			funcName[id] = name
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	for i, locs := range sampleLoc {
		pkg := "runtime"
	stack:
		for _, l := range locs {
			for _, f := range locFuncs[l] {
				idx := funcName[f]
				if idx < 0 || idx >= int64(len(strs)) {
					return fmt.Errorf("cpu profile: function name index %d out of range", idx)
				}
				if p := chargePackage(strs[idx]); p != "" {
					pkg = p
					break stack
				}
			}
		}
		into[pkg] += sampleCnt[i]
	}
	return nil
}

// eachField walks the fields of one protobuf message. For varint fields
// v holds the value; for length-delimited fields b holds the bytes.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// eachVarint yields the values of a repeated varint field, packed
// (wire type 2) or not.
func eachVarint(wire int, v uint64, b []byte, fn func(uint64)) error {
	if wire == 0 {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
