package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// minProfileSamples is the fewest CPU-profile samples a share may rest
// on: below it one sample is worth more than half a percentage point and
// the budget is withheld instead of printed.
const minProfileSamples = 200

// shareLayers are the layers the CPU profile is split into, in print
// order. Every varsim/internal package maps to one of them; "runtime"
// takes the Go runtime, "std" the rest of the standard library and
// "other" whatever is left (the bench's own frames, unnamed frames).
var shareLayers = []string{
	"sim", "mem", "dram", "kernel", "bpred", "workload", "machine", "core",
	"fleet", "journal", "checkpoint", "sampling", "stats", "harness",
	"report", "taps", "rng", "runtime", "std", "other",
}

// layerAlias folds the internal packages that have no row of their own
// into the layer that owns them in the budget.
var layerAlias = map[string]string{
	"workloads": "workload",
	"metrics":   "taps", "digest": "taps", "trace": "taps", "traceviz": "taps",
	"precision": "stats",
	"config":    "machine",
	"profile":   "fleet",
}

// allocFuncs marks the runtime functions that exist because the program
// allocates: clearing and copying memory, the allocator, and the
// collector that follows it.
var allocFuncs = []string{
	"memclr", "memmove", "malloc", "newobject", "makeslice", "growslice",
	"gc", "scan", "sweep", "mark", "greyobject", "findObject", "heapBits",
	"typePointers", "bulkBarrier", "wbBuf", "(*mcache)", "(*mcentral)",
	"(*mheap)", "(*mspan)", "(*gcWork)", "(*pageAlloc)", "(*limiterEvent)",
}

// cpuShares is a CPU profile attributed to layers by the innermost
// frame of every sample (self time, so the shares sum to 100).
type cpuShares struct {
	Samples int64            // profile samples behind the shares
	Layer   map[string]int64 // samples whose leaf frame is in the layer
	Alloc   int64            // runtime samples in allocFuncs
}

// pct returns layer's share of the profile in percent.
func (s cpuShares) pct(n int64) float64 {
	if s.Samples == 0 {
		return 0
	}
	return 100 * float64(n) / float64(s.Samples)
}

// withheld explains why the shares may not be printed, or is empty.
func (s cpuShares) withheld() string {
	if s.Samples < minProfileSamples {
		return fmt.Sprintf("profile has %d samples, a share needs %d", s.Samples, minProfileSamples)
	}
	return ""
}

// layerOf maps a symbol name from the profile to its layer and reports
// whether it is one of the runtime's allocation functions.
func layerOf(fn string) (layer string, alloc bool) {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may hold slashes and dots
	}
	pkg := fn
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case strings.HasPrefix(pkg, "varsim/internal/"):
		name := strings.TrimPrefix(pkg, "varsim/internal/")
		if i := strings.IndexByte(name, '/'); i >= 0 {
			name = name[:i]
		}
		if a, ok := layerAlias[name]; ok {
			name = a
		}
		for _, l := range shareLayers {
			if l == name {
				return name, false
			}
		}
		return "other", false
	case pkg == "runtime", strings.HasPrefix(pkg, "runtime/"), strings.HasPrefix(pkg, "internal/runtime/"):
		rest := fn[len(pkg):]
		for _, a := range allocFuncs {
			if strings.Contains(rest, a) {
				return "runtime", true
			}
		}
		return "runtime", false
	case pkg == "main", pkg == "", strings.HasPrefix(pkg, "varsim"):
		return "other", false
	}
	return "std", false
}

// attribute decodes a gzipped pprof CPU profile, as runtime/pprof
// writes it, and attributes every sample to the layer of its leaf
// frame. It reads the few protobuf fields it needs by hand so the module
// stays free of requirements.
func attribute(gz []byte) (cpuShares, error) {
	shares := cpuShares{Layer: map[string]int64{}}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return shares, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return shares, fmt.Errorf("cpu profile: %w", err)
	}

	type sample struct {
		leaf  uint64
		count int64
	}
	var (
		samples []sample
		strs    []string
		locFunc = map[uint64]uint64{} // location id -> innermost function id
		fnName  = map[uint64]uint64{} // function id -> string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2: // Sample: the leaf is location_id[0], the count value[0]
			s := sample{}
			var seen [3]bool
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				if num > 2 || seen[num] {
					return nil
				}
				seen[num] = true
				if b != nil { // packed: take the first element
					n := 0
					if v, n = uvarint(b); n == 0 {
						return errTruncated
					}
				}
				if num == 1 {
					s.leaf = v
				} else {
					s.count = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id, fn uint64
			gotLine := false
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && !gotLine: // line[0] is the innermost inlined frame
					gotLine = true
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fn = v
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFunc[id] = fn
		case 5: // Function
			var id, name uint64
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return shares, fmt.Errorf("cpu profile: %w", err)
	}

	for _, s := range samples {
		name := ""
		if i := fnName[locFunc[s.leaf]]; i < uint64(len(strs)) {
			name = strs[i]
		}
		layer, alloc := layerOf(name)
		shares.Samples += s.count
		shares.Layer[layer] += s.count
		if alloc {
			shares.Alloc += s.count
		}
	}
	return shares, nil
}

var errTruncated = errors.New("truncated protobuf")

// uvarint decodes one base-128 varint, returning the bytes consumed (0
// when b ends early).
func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, 0
		}
		x |= uint64(c&0x7f) << (7 * uint(i))
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// eachField walks one protobuf message, calling f with every field's
// number and either its varint value (b nil) or its length-delimited
// bytes. Fixed-width fields, which the profile's messages of interest do
// not use, are skipped.
func eachField(msg []byte, f func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n == 0 {
			return errTruncated
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := uvarint(msg)
			if n == 0 {
				return errTruncated
			}
			msg = msg[n:]
			if err := f(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errTruncated
			}
			msg = msg[8:]
		case 2:
			l, n := uvarint(msg)
			if n == 0 || uint64(len(msg)-n) < l {
				return errTruncated
			}
			if err := f(num, 0, msg[n:n+int(l)]); err != nil {
				return err
			}
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errTruncated
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("protobuf wire type %d", key&7)
		}
	}
	return nil
}
