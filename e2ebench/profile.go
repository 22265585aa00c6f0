package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// The CPU profile is read with a minimal decoder of the pprof protobuf
// format (github.com/google/pprof/proto/profile.proto), which is all the
// standard library offers no reader for. Only the fields needed to walk
// each sample's stack are decoded.

// Layer names of samples that no dynlocal package accounts for.
const (
	layerMap          = "runtime.map"
	layerGC           = "runtime.gc"
	layerUnattributed = "unattributed"
)

const internalPrefix = "dynlocal/internal/"

// gcRoots are runtime frames that mark a stack as garbage-collector work:
// background mark workers, sweeping, scavenging and mutator assists.
var gcRoots = []string{
	"runtime.gcBgMarkWorker",
	"runtime.gcAssistAlloc",
	"runtime.bgsweep",
	"runtime.bgscavenge",
}

// stepRoots are the frames that put a stack inside Engine.Step: the call
// itself and the engine's phase workers, which run only during a Step.
var stepRoots = []string{
	"dynlocal/internal/engine.(*Engine).Step",
	"dynlocal/internal/engine.(*phasePool).worker",
}

// attribute adds the samples of a gzipped CPU profile that ran inside
// Engine.Step, or in the garbage collector, to counts by layer. A sample
// goes to the innermost dynlocal/internal/<pkg> frame, with
// internal/algos/* folded into "algos"; map access, assignment and
// iteration above it go to runtime.map; collector work goes to
// runtime.gc; the rest to unattributed.
func attribute(gz []byte, counts map[string]int64) error {
	if len(gz) == 0 {
		return nil
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return err
	}
	for _, s := range p.samples {
		var frames []string
		for _, id := range s.locs {
			for _, fn := range p.locFuncs[id] {
				frames = append(frames, p.strings[p.funcName[fn]])
			}
		}
		if layer := classify(frames); layer != "" {
			counts[layer] += s.count
		}
	}
	return nil
}

// classify returns the layer of a stack listed innermost frame first, or
// "" for a sample outside Engine.Step and the collector.
func classify(frames []string) string {
	if hasAny(frames, gcRoots) {
		return layerGC
	}
	if !hasAny(frames, stepRoots) {
		return ""
	}
	for _, f := range frames {
		if strings.HasPrefix(f, "runtime.map") || strings.HasPrefix(f, "internal/runtime/maps.") {
			return layerMap
		}
		if rest, ok := strings.CutPrefix(f, internalPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			return pkg
		}
	}
	return layerUnattributed
}

func hasAny(frames, roots []string) bool {
	for _, f := range frames {
		for _, r := range roots {
			if f == r {
				return true
			}
		}
	}
	return false
}

type sample struct {
	locs  []uint64
	count int64
}

type profile struct {
	samples  []sample
	locFuncs map[uint64][]uint64 // location id → function ids, innermost first
	funcName map[uint64]int64    // function id → string table index
	strings  []string
}

var errProto = errors.New("malformed profile protobuf")

// Field numbers of profile.proto.
const (
	profSample   = 2
	profLocation = 4
	profFunction = 5
	profString   = 6

	sampleLocation = 1
	sampleValue    = 2

	locID   = 1
	locLine = 4

	lineFunction = 1

	funcID   = 1
	funcName = 2
)

func parseProfile(b []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, v uint64, data []byte) error {
		switch num {
		case profSample:
			var s sample
			var values []int64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case sampleLocation:
					return repeated(v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case sampleValue:
					return repeated(v, data, func(x uint64) { values = append(values, int64(x)) })
				}
				return nil
			})
			if len(values) > 0 {
				// The first value of a CPU profile is the sample count.
				s.count = values[0]
			}
			p.samples = append(p.samples, s)
			return err
		case profLocation:
			var id uint64
			var fns []uint64
			err := fields(data, func(num int, v uint64, data []byte) error {
				switch num {
				case locID:
					id = v
				case locLine:
					return fields(data, func(num int, v uint64, _ []byte) error {
						if num == lineFunction {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locFuncs[id] = fns
			return err
		case profFunction:
			var id uint64
			var name int64
			err := fields(data, func(num int, v uint64, _ []byte) error {
				switch num {
				case funcID:
					id = v
				case funcName:
					name = int64(v)
				}
				return nil
			})
			p.funcName[id] = name
			return err
		case profString:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, idx := range p.funcName {
		if idx < 0 || idx >= int64(len(p.strings)) {
			return nil, errProto
		}
	}
	return p, nil
}

// repeated walks a repeated varint field given either one unpacked value
// (data == nil) or a packed run.
func repeated(v uint64, data []byte, fn func(uint64)) error {
	if data == nil {
		fn(v)
		return nil
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return errProto
		}
		fn(x)
		data = data[n:]
	}
	return nil
}

// fields walks the fields of one protobuf message, passing varints as v
// (data nil) and length-delimited fields as data.
func fields(b []byte, fn func(num int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			data := b[n : n+int(l)]
			b = b[n+int(l):]
			if err := fn(num, 0, data); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
	}
	return nil
}
