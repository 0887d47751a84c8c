// Package jsonwire is the float codec of the ingest wire: the JSON bodies
// of POST /v1/snapshots and /v1/infer, and the coordinator-to-node
// snapshot stream of package cluster. Every snapshot crosses those
// boundaries as a JSON float vector, and reflection-based encoding/json
// costs more per snapshot than the estimator it feeds.
//
// The package owns two things. The decoders (DecodeIngest, DecodeSnapshot,
// DecodeRows, DecodeFloats) accept only the canonical shapes of those
// bodies — lowercase keys from a fixed set, each at most once, number
// arrays, integer probe counts, JSON whitespace — checking the JSON grammar
// by hand and converting each number with strconv exactly as encoding/json
// does. They report ok=false on anything else (unknown or mixed-case keys,
// null, duplicate keys, escapes in keys, out-of-range numbers, trailing
// data, malformed text), and the caller hands the same bytes to
// encoding/json, so non-canonical input keeps encoding/json's behaviour
// and error text. The appenders (AppendFloats, AppendRows) write floats
// byte-for-byte as encoding/json does, and fail on NaN and ±Inf with
// encoding/json's error.
//
// Accepted input decodes to bitwise the values encoding/json yields, nil
// versus empty slices included; the package's fuzz tests hold both halves
// to encoding/json.
package jsonwire

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
)

// appendFloat appends f as encoding/json encodes a float64: the shortest
// representation that round-trips, in 'f' format unless |f| < 1e-6 or
// |f| >= 1e21, where it switches to 'e' with a two-digit negative exponent
// trimmed to one ("1e-07" becomes "1e-7"). NaN and ±Inf return
// encoding/json's *json.UnsupportedValueError and dst unchanged.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return dst, &json.UnsupportedValueError{Value: reflect.ValueOf(f), Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b := strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// AppendFloats appends fs as encoding/json encodes a []float64: "null" for
// a nil slice, otherwise a bracketed, comma-separated array without
// spaces. On a non-finite element it returns the error and dst unchanged.
func AppendFloats(dst []byte, fs []float64) ([]byte, error) {
	if fs == nil {
		return append(dst, "null"...), nil
	}
	b := append(dst, '[')
	for i, f := range fs {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = appendFloat(b, f); err != nil {
			return dst, err
		}
	}
	return append(b, ']'), nil
}

// AppendRows appends rows as encoding/json encodes a [][]float64. On a
// non-finite element it returns the error and dst unchanged.
func AppendRows(dst []byte, rows [][]float64) ([]byte, error) {
	if rows == nil {
		return append(dst, "null"...), nil
	}
	b := append(dst, '[')
	for i, row := range rows {
		if i > 0 {
			b = append(b, ',')
		}
		var err error
		if b, err = AppendFloats(b, row); err != nil {
			return dst, err
		}
	}
	return append(b, ']'), nil
}
