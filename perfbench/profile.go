package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"math"
	"runtime"
	"strings"
)

// Profiles are attributed to layers by each sample's innermost
// jitsu/internal/<layer> frame: the layer whose own code was running
// (or allocating) when the sample was taken. A sample whose stack has
// no jitsu frame at all — background GC, the scheduler — goes to "gc";
// one whose innermost jitsu frame is the benchmark's own package main
// goes to "bench".

// layerOf maps a function name to its layer, "" when it is not jitsu
// code.
func layerOf(fn string) string {
	const prefix = "jitsu/internal/"
	if strings.HasPrefix(fn, prefix) {
		rest := fn[len(prefix):]
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			return rest[:i]
		}
		return rest
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	return ""
}

// attribute returns the layer of a stack given innermost-first.
func attribute(frames []string) string {
	for _, fn := range frames {
		if l := layerOf(fn); l != "" {
			return l
		}
	}
	return "gc"
}

// cpuByLayer decodes a gzipped pprof CPU profile and sums its sampled
// CPU nanoseconds per layer.
func cpuByLayer(gz []byte, into map[string]float64) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return err
	}
	p, err := decodeProfile(raw)
	if err != nil {
		return err
	}
	vi := p.sampleTypes - 1 // CPU profiles: [samples/count, cpu/nanoseconds]
	var frames []string
	for _, s := range p.samples {
		if vi < 0 || vi >= len(s.values) {
			return errors.New("profile: sample without a value")
		}
		frames = frames[:0]
		for _, id := range s.locs {
			for _, fid := range p.locLines[id] {
				frames = append(frames, p.strings[p.funcName[fid]])
			}
		}
		into[attribute(frames)] += float64(s.values[vi])
	}
	return nil
}

// allocByLayer sums the heap profile's allocated bytes per layer since
// the program started, scaled from the sampled records the way pprof
// scales them. Callers difference two readings to cover one phase;
// run runtime.GC first so the profile is current.
func allocByLayer(into map[string]float64) {
	var recs []runtime.MemProfileRecord
	n, _ := runtime.MemProfile(nil, true)
	for {
		recs = make([]runtime.MemProfileRecord, n+64)
		var ok bool
		n, ok = runtime.MemProfile(recs, true)
		if ok {
			recs = recs[:n]
			break
		}
	}
	rate := float64(runtime.MemProfileRate)
	var frames []string
	for i := range recs {
		r := &recs[i]
		if r.AllocObjects == 0 {
			continue
		}
		bytes := float64(r.AllocBytes)
		if rate > 1 {
			avg := bytes / float64(r.AllocObjects)
			bytes /= 1 - math.Exp(-avg/rate)
		}
		frames = frames[:0]
		it := runtime.CallersFrames(r.Stack())
		for {
			f, more := it.Next()
			frames = append(frames, f.Function)
			if !more {
				break
			}
		}
		into[attribute(frames)] += bytes
	}
}

// profile is the part of a pprof protobuf the attribution needs.
type profile struct {
	sampleTypes int // number of values per sample
	samples     []sample
	locLines    map[uint64][]uint64 // location id -> function ids, innermost first
	funcName    map[uint64]int64    // function id -> string index
	strings     []string
}

type sample struct {
	locs   []uint64
	values []int64
}

// decodeProfile parses the profile.proto fields the attribution uses:
// sample (2), location (4), function (5) and the string table (6).
func decodeProfile(b []byte) (*profile, error) {
	p := &profile{locLines: map[uint64][]uint64{}, funcName: map[uint64]int64{}}
	err := fields(b, func(num int, wt int, v uint64, data []byte) error {
		switch num {
		case 1:
			p.sampleTypes++
		case 2:
			var s sample
			err := fields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					return varints(wt, v, data, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return varints(wt, v, data, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			if err != nil {
				return err
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			err := fields(data, func(num, wt int, v uint64, data []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return fields(data, func(num, wt int, v uint64, _ []byte) error {
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
			p.locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			err := fields(data, func(num, wt int, v uint64, _ []byte) error {
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
			p.funcName[id] = name
		case 6:
			p.strings = append(p.strings, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for _, n := range p.funcName {
		if n < 0 || n >= int64(len(p.strings)) {
			return nil, errors.New("profile: bad function name index")
		}
	}
	return p, nil
}

var errProto = errors.New("profile: malformed protobuf")

// fields walks one protobuf message, calling fn for each field with
// its number, wire type, varint value (wire type 0) or payload (wire
// type 2).
func fields(b []byte, fn func(num, wt int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var data []byte
		switch wt {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, data); err != nil {
			return err
		}
	}
	return nil
}

// varints handles a repeated integer field in either encoding: one
// varint (wire type 0) or a packed run (wire type 2).
func varints(wt int, v uint64, data []byte, add func(uint64)) error {
	if wt == 0 {
		add(v)
		return nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return errProto
		}
		add(x)
		data = data[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
