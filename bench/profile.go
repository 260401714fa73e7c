package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message. The
// benchmark reads it with this small decoder instead of `go tool pprof`,
// whose text reports do not give the file of each frame, and the standard
// library has no profile parser.

// frame is one (possibly inlined) function on a sampled stack.
type frame struct{ fn, file string }

// sample is one stack, innermost frame first, and the CPU time it holds.
type sample struct {
	frames []frame
	ns     int64
}

// attribute charges each sample's CPU time, in seconds, to a per-layer
// metric: the layer of the innermost tlrsim frame on the stack, so map
// lookups, allocation and other runtime helpers count against the layer that
// called them. Channel and scheduler work under a proc frame is the goroutine
// thread handoff; samples with no tlrsim frame are the Go runtime's own.
func attribute(samples []sample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[layerOf(s.frames)] += float64(s.ns) / 1e9
	}
	return out
}

var (
	handoffFrames = []string{"runtime.chansend", "runtime.chanrecv", "runtime.gopark",
		"runtime.mcall", "runtime.schedule", "runtime.futex"}
	gcFrames = []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
		"runtime.markroot", "runtime.scanobject", "runtime.sweepone"}
)

func layerOf(frames []frame) string {
	for i, f := range frames {
		layer := layerName(f)
		if layer == "" {
			continue
		}
		if strings.HasPrefix(layer, "proc.") && anyPrefix(frames[:i], handoffFrames) {
			return "proc.handoff_s"
		}
		return layer
	}
	if anyPrefix(frames, gcFrames) {
		return "runtime.gc_s"
	}
	return "runtime.other_s"
}

// layerName names the per-layer metric a tlrsim frame is charged to, or ""
// for a frame outside tlrsim. The proc and litmus packages are split by file.
func layerName(f frame) string {
	switch {
	case strings.HasPrefix(f.fn, "main."), strings.HasPrefix(f.fn, "tlrsim/bench."):
		return "bench.self_s"
	case strings.HasPrefix(f.fn, "tlrsim/internal/"):
		pkg, _, _ := strings.Cut(strings.TrimPrefix(f.fn, "tlrsim/internal/"), ".")
		file := path.Base(f.file)
		switch pkg {
		case "proc":
			switch file {
			case "cpu.go":
				return "proc.cpu_self_s"
			case "tc.go", "script.go":
				return "proc.thread_self_s"
			case "snapshot.go":
				return "proc.reset_self_s"
			case "stall.go":
				return "proc.stall_self_s"
			}
			return "proc.machine_self_s"
		case "litmus":
			switch file {
			case "enum.go":
				return "litmus.enum_self_s"
			case "model.go":
				return "litmus.model_self_s"
			}
			return "litmus.run_self_s"
		case "runner", "stats":
			return "harness.self_s"
		}
		return pkg + ".self_s"
	case strings.HasPrefix(f.fn, "tlrsim."):
		return "harness.self_s" // the public API's thin wrappers
	}
	return ""
}

func anyPrefix(frames []frame, prefixes []string) bool {
	for _, f := range frames {
		for _, p := range prefixes {
			if strings.HasPrefix(f.fn, p) {
				return true
			}
		}
	}
	return false
}

// readProfile decodes the CPU samples of a pprof profile file.
func readProfile(file string) ([]sample, error) {
	raw, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	samples, err := parseProfile(raw)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return samples, nil
}

func parseProfile(raw []byte) ([]sample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, values []uint64 }
	type valueType struct{ typ, unit uint64 }
	var (
		strs      []string
		types     []valueType
		raws      []rawSample
		locLines  = map[uint64][]uint64{}  // location id -> function ids, innermost first
		functions = map[uint64][2]uint64{} // function id -> (name, filename) string indexes
	)
	err = fields(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 1: // sample_type
			var t valueType
			err := twoVarints(b, &t.typ, &t.unit)
			types = append(types, t)
			return err
		case 2: // sample
			var s rawSample
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					s.values = appendPacked(s.values, v, b)
				}
				return nil
			})
			raws = append(raws, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					var fn, line uint64
					if err := twoVarints(b, &fn, &line); err != nil {
						return err
					}
					fns = append(fns, fn)
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id, name, file uint64
			err := fields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				case 4:
					file = v
				}
				return nil
			})
			functions[id] = [2]uint64{name, file}
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range types {
		if str(t.unit) == "nanoseconds" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("no nanoseconds sample type: not a CPU profile")
	}
	out := make([]sample, 0, len(raws))
	for _, rs := range raws {
		if cpu >= len(rs.values) {
			return nil, errors.New("sample without a CPU value")
		}
		s := sample{ns: int64(rs.values[cpu])}
		for _, loc := range rs.locs {
			for _, fid := range locLines[loc] {
				fn := functions[fid]
				s.frames = append(s.frames, frame{fn: str(fn[0]), file: str(fn[1])})
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// twoVarints decodes a message whose fields 1 and 2 are varints (ValueType,
// Line).
func twoVarints(b []byte, a, c *uint64) error {
	return fields(b, func(f int, v uint64, _ []byte) error {
		switch f {
		case 1:
			*a = v
		case 2:
			*c = v
		}
		return nil
	})
}

// fields calls fn for each field of a protobuf message: v for varint and
// fixed-width fields, b for length-delimited ones.
func fields(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errors.New("bad protobuf key")
		}
		data = data[n:]
		var (
			v uint64
			b []byte
		)
		switch key & 7 {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errors.New("bad protobuf varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errors.New("short protobuf fixed64")
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errors.New("bad protobuf length")
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errors.New("short protobuf fixed32")
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either unpacked (one
// value v) or packed (b holds the varints).
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst, b = append(dst, x), b[n:]
	}
	return dst
}
