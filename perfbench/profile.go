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

// This file attributes pprof samples to the repository's layers with the
// standard library alone: it decodes the gzipped profile.proto that
// runtime/pprof writes and charges each sample to the innermost frame of
// its stack that belongs to a layer. Runtime work a layer causes (map
// access, allocation, goroutine hand-off) is therefore charged to that
// layer; samples with no layer frame at all, such as the GC's background
// workers, go to runtime.other.

// layers are the repository's modules the benchmark reports, plus bench,
// the harness's own code.
var layers = []string{
	"sim", "simnet", "cluster", "registry", "crt", "kube", "sched", "cplane",
	"knative", "kpa", "resilience", "condor", "wms", "storage", "fluid",
	"workload", "trace", "bench",
}

// profileBuckets are the names samples are summed under: every layer,
// "other" for repository packages outside the list (core, config, ...), and
// "runtime.other" for samples with no repository frame. They partition the
// samples, so the buckets add up to the profile's total.
func profileBuckets() []string {
	return append(append([]string(nil), layers...), "other", "runtime.other")
}

// bucketMetric names a bucket's metric: sim.cpu_s, but runtime.other_cpu_s.
func bucketMetric(bucket, what string) string {
	if bucket == "runtime.other" {
		return bucket + "_" + what
	}
	return bucket + "." + what
}

// layerOf maps a function name to its bucket, or "" for code outside the
// repository.
func layerOf(fn string) string {
	if strings.HasPrefix(fn, "main.") {
		return "bench"
	}
	rest, ok := strings.CutPrefix(fn, "repro/internal/")
	if !ok {
		return ""
	}
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		rest = rest[:i]
	}
	for _, l := range layers {
		if l == rest {
			return l
		}
	}
	return "other"
}

// attribute sums the named sample value of profile by bucket, minus the
// same sums over base when base is not nil (for cumulative profiles), and
// multiplies by scale.
func attribute(profile, base []byte, sampleType string, scale float64) (map[string]float64, error) {
	out := map[string]float64{}
	for _, b := range profileBuckets() {
		out[b] = 0
	}
	add := func(data []byte, sign float64) error {
		p, err := parseProfile(data)
		if err != nil {
			return err
		}
		vi := -1
		for i, t := range p.sampleTypes {
			if t == sampleType {
				vi = i
			}
		}
		if vi < 0 {
			return fmt.Errorf("profile has no %q samples", sampleType)
		}
		for _, s := range p.samples {
			bucket := "runtime.other"
		frames:
			for _, loc := range s.locations {
				for _, fn := range p.locations[loc] {
					if l := layerOf(p.functions[fn]); l != "" {
						bucket = l
						break frames
					}
				}
			}
			out[bucket] += sign * float64(s.values[vi]) * scale
		}
		return nil
	}
	if base != nil {
		if err := add(base, -1); err != nil {
			return nil, err
		}
	}
	if err := add(profile, 1); err != nil {
		return nil, err
	}
	return out, nil
}

// profile is the part of profile.proto attribution needs.
type profile struct {
	sampleTypes []string
	samples     []sample
	// locations maps a location ID to its function IDs, innermost
	// (inlined) first.
	locations map[uint64][]uint64
	functions map[uint64]string
}

// sample lists location IDs leaf first.
type sample struct {
	locations []uint64
	values    []int64
}

// Field numbers from profile.proto.
const (
	fProfileSampleType  = 1
	fProfileSample      = 2
	fProfileLocation    = 4
	fProfileFunction    = 5
	fProfileStringTable = 6
	fValueTypeType      = 1
	fSampleLocationID   = 1
	fSampleValue        = 2
	fLocationID         = 1
	fLocationLine       = 4
	fLineFunctionID     = 1
	fFunctionID         = 1
	fFunctionName       = 2
)

func parseProfile(data []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("gunzip profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("gunzip profile: %w", err)
	}
	p := &profile{locations: map[uint64][]uint64{}, functions: map[uint64]string{}}
	var strs []string
	var typeIdx []uint64
	funcName := map[uint64]uint64{}
	err = fields(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case fProfileSampleType:
			return fields(b, func(n int, v uint64, _ []byte) error {
				if n == fValueTypeType {
					typeIdx = append(typeIdx, v)
				}
				return nil
			})
		case fProfileSample:
			var s sample
			err := fields(b, func(n int, v uint64, vb []byte) error {
				switch n {
				case fSampleLocationID:
					return varints(v, vb, func(x uint64) { s.locations = append(s.locations, x) })
				case fSampleValue:
					return varints(v, vb, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case fProfileLocation:
			var id uint64
			var fns []uint64
			err := fields(b, func(n int, v uint64, lb []byte) error {
				switch n {
				case fLocationID:
					id = v
				case fLocationLine:
					return fields(lb, func(n int, v uint64, _ []byte) error {
						if n == fLineFunctionID {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = fns
			return err
		case fProfileFunction:
			var id, name uint64
			err := fields(b, func(n int, v uint64, _ []byte) error {
				switch n {
				case fFunctionID:
					id = v
				case fFunctionName:
					name = v
				}
				return nil
			})
			funcName[id] = name
			return err
		case fProfileStringTable:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	str := func(i uint64) (string, error) {
		if i >= uint64(len(strs)) {
			return "", errors.New("profile string index out of range")
		}
		return strs[i], nil
	}
	for id, si := range funcName {
		if p.functions[id], err = str(si); err != nil {
			return nil, err
		}
	}
	for _, ti := range typeIdx {
		t, err := str(ti)
		if err != nil {
			return nil, err
		}
		p.sampleTypes = append(p.sampleTypes, t)
	}
	return p, nil
}

// fields walks the protobuf fields of msg, passing each field's number and
// either its varint value or its length-delimited bytes.
func fields(msg []byte, visit func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("malformed protobuf key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("malformed protobuf varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated protobuf fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated protobuf field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated protobuf fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
		if err := visit(num, v, b); err != nil {
			return err
		}
	}
	return nil
}

// varints decodes a repeated varint field, which is either a single value
// or a packed run.
func varints(v uint64, packed []byte, visit func(uint64)) error {
	if packed == nil {
		visit(v)
		return nil
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return errors.New("malformed packed varint")
		}
		visit(x)
		packed = packed[n:]
	}
	return nil
}
