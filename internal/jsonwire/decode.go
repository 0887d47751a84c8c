package jsonwire

import (
	"bytes"
	"strconv"
	"unsafe"
)

// Snapshot is the canonical snapshot object of the serve API:
// {"y":[…]} or {"frac":[…],"probes":n}, any subset of the three keys.
type Snapshot struct {
	Y      []float64
	Frac   []float64
	Probes int
}

// Ingest is the canonical POST /v1/snapshots body: an inline snapshot's
// keys and a batch under "snapshots", either or both.
type Ingest struct {
	Snapshot
	Snapshots []Snapshot
}

// DecodeIngest decodes a canonical POST /v1/snapshots body. ok=false means
// the body is outside the canonical subset (see the package doc) and must
// go to encoding/json.
func DecodeIngest(b []byte) (in Ingest, ok bool) {
	s := newScanner(b)
	if !s.snapshot(&in.Snapshot, &in.Snapshots) || !s.end() {
		return Ingest{}, false
	}
	return in, true
}

// DecodeSnapshot decodes a canonical snapshot object, the POST /v1/infer
// body.
func DecodeSnapshot(b []byte) (p Snapshot, ok bool) {
	s := newScanner(b)
	if !s.snapshot(&p, nil) || !s.end() {
		return Snapshot{}, false
	}
	return p, true
}

// DecodeFloats decodes {"<key>":[…]}, an object whose only member is a
// number array.
func DecodeFloats(b []byte, key string) ([]float64, bool) {
	s := newScanner(b)
	if !s.consume('{') || !s.name(key) {
		return nil, false
	}
	row, ok := s.floats()
	if !ok || !s.consume('}') || !s.end() {
		return nil, false
	}
	return row, true
}

// DecodeRows decodes {"<key>":[[…],…]}, an object whose only member is an
// array of number arrays.
func DecodeRows(b []byte, key string) ([][]float64, bool) {
	s := newScanner(b)
	if !s.consume('{') || !s.name(key) || !s.consume('[') {
		return nil, false
	}
	rows := [][]float64{}
	if s.consume(']') {
		return s.closeTop(rows)
	}
	for {
		row, ok := s.floats()
		if !ok {
			return nil, false
		}
		rows = append(rows, row)
		if !s.consume(',') {
			if !s.consume(']') {
				return nil, false
			}
			return s.closeTop(rows)
		}
	}
}

// closeTop finishes a single-member object after its value.
func (s *scanner) closeTop(rows [][]float64) ([][]float64, bool) {
	if !s.consume('}') || !s.end() {
		return nil, false
	}
	return rows, true
}

// scanner walks one JSON text. Every decoded float lands in flat, so the
// rows of one text share one backing array; each row is capped at its own
// length, so appending to one never writes into the next.
type scanner struct {
	b    []byte
	i    int
	flat []float64
}

// maxPresize caps flat's up-front size (512 KiB of floats), so a body of
// bare commas cannot reserve eight bytes per byte it sent.
const maxPresize = 1 << 16

// newScanner sizes flat for the whole text up front: every array element
// follows a '[' or a ',', so their count bounds the floats. Grown by
// append from empty instead, flat would leave each earlier row holding an
// outgrown array until the request ends; in a heap-profiled fleet2 run
// that kept 3.7 times as many bytes of decoded floats live as the presize
// does, and twice what encoding/json's per-row slices keep. The bound only
// sizes the allocation; an append past it stays correct, because rows
// already handed out keep the old array.
func newScanner(b []byte) scanner {
	n := min(bytes.Count(b, []byte{'['})+bytes.Count(b, []byte{','}), maxPresize)
	return scanner{b: b, flat: make([]float64, 0, n)}
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then the byte c, reporting whether c was
// there (nothing is consumed past the whitespace otherwise).
func (s *scanner) consume(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace remains.
func (s *scanner) end() bool {
	s.ws()
	return s.i == len(s.b)
}

// key scans a member name and its ':'. Names with escapes or control
// bytes fail: no canonical key needs them.
func (s *scanner) key() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	start := s.i
	for s.i < len(s.b) {
		switch c := s.b[s.i]; {
		case c == '"':
			k := s.b[start:s.i]
			s.i++
			return k, s.consume(':')
		case c == '\\' || c < 0x20:
			return nil, false
		}
		s.i++
	}
	return nil, false
}

// name scans a member name that must equal want.
func (s *scanner) name(want string) bool {
	k, ok := s.key()
	return ok && string(k) == want
}

// number scans one JSON number and returns its text:
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
func (s *scanner) number() (text []byte, integer, ok bool) {
	s.ws()
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		return nil, false, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			return nil, false, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			return nil, false, false
		}
		i, integer = j, false
	}
	s.i = i
	return b[start:i], integer, true
}

// digits returns the index of the first non-digit at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// str views number text as a string without copying. strconv keeps no
// reference to its input (its errors clone it), and the text outlives
// every call it is passed to.
func str(text []byte) string { return unsafe.String(unsafe.SliceData(text), len(text)) }

// float scans a number as encoding/json decodes it into a float64:
// strconv.ParseFloat on its text, failing where that fails (out of range).
func (s *scanner) float() (float64, bool) {
	text, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(str(text), 64)
	return f, err == nil
}

// int scans a number as encoding/json decodes it into an int: an integer
// literal that strconv.ParseInt accepts at int's size.
func (s *scanner) int() (int, bool) {
	text, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	n, err := strconv.ParseInt(str(text), 10, strconv.IntSize)
	return int(n), err == nil
}

// floats scans a number array. An empty array decodes to an empty, non-nil
// slice, as encoding/json decodes it.
func (s *scanner) floats() ([]float64, bool) {
	if !s.consume('[') {
		return nil, false
	}
	if s.consume(']') {
		return []float64{}, true
	}
	flat := s.flat
	start := len(flat)
	for {
		f, ok := s.float()
		if !ok {
			return nil, false
		}
		flat = append(flat, f)
		s.ws()
		if s.i == len(s.b) {
			return nil, false
		}
		c := s.b[s.i]
		s.i++
		if c == ']' {
			break
		}
		if c != ',' {
			return nil, false
		}
	}
	s.flat = flat
	return flat[start:len(flat):len(flat)], true
}

// snapshot scans a snapshot object into p. With batch non-nil it also
// accepts the "snapshots" key of an ingest body.
func (s *scanner) snapshot(p *Snapshot, batch *[]Snapshot) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint8
	for {
		k, ok := s.key()
		if !ok {
			return false
		}
		var bit uint8
		switch string(k) {
		case "y":
			bit = 1
			p.Y, ok = s.floats()
		case "frac":
			bit = 2
			p.Frac, ok = s.floats()
		case "probes":
			bit = 4
			p.Probes, ok = s.int()
		case "snapshots":
			if batch == nil {
				return false
			}
			bit = 8
			*batch, ok = s.batch()
		default:
			return false
		}
		if !ok || seen&bit != 0 {
			return false
		}
		seen |= bit
		if !s.consume(',') {
			return s.consume('}')
		}
	}
}

// batch scans the "snapshots" array of an ingest body.
func (s *scanner) batch() ([]Snapshot, bool) {
	if !s.consume('[') {
		return nil, false
	}
	out := []Snapshot{}
	if s.consume(']') {
		return out, true
	}
	for {
		var p Snapshot
		if !s.snapshot(&p, nil) {
			return nil, false
		}
		out = append(out, p)
		if !s.consume(',') {
			return out, s.consume(']')
		}
	}
}
