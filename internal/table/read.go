package table

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"sync"
)

var errQuote, errFieldCount = errors.New(`misplaced " in a cell`), errors.New("wrong number of fields")

// records walks the records of a CSV buffer: comma-separated cells, a cell
// that starts with '"' runs to its closing quote ("" is a literal quote and
// it may span lines), lines end in \n or \r\n, blank lines are skipped.
type records struct {
	data  []byte
	pos   int      // next unread byte
	start int      // where the current record began
	cells [][]byte // the current record, cells trimmed of white space
}

// next reads one record into r.cells; ok is false at the end of the data.
func (r *records) next() (ok bool, err error) {
	data, pos := r.data, r.pos
	for pos < len(data) && (data[pos] == '\n' || data[pos] == '\r' && (pos+1 == len(data) || data[pos+1] == '\n')) {
		pos++ // blank lines: "\n", "\r\n", or a last "\r"
	}
	if r.start, r.cells = pos, r.cells[:0]; pos == len(data) {
		return false, nil
	}
	for ; ; pos++ { // a cell per turn; pos++ steps over its comma
		var cell []byte
		if pos < len(data) && data[pos] == '"' {
			cell, pos = unquote(data, pos+1)
			if pos < len(data) && data[pos] == '\r' && (pos+1 == len(data) || data[pos+1] == '\n') {
				pos++
			}
			if cell == nil || pos < len(data) && data[pos] != ',' && data[pos] != '\n' {
				return false, errQuote
			}
		} else {
			from := pos
			for ; pos < len(data) && data[pos] != ',' && data[pos] != '\n'; pos++ {
				if data[pos] == '"' {
					return false, errQuote
				}
			}
			cell = data[from:pos]
		}
		r.cells = append(r.cells, bytes.TrimSpace(cell))
		if pos == len(data) || data[pos] == '\n' {
			r.pos = min(pos+1, len(data))
			return true, nil
		}
	}
}

// unquote reads the quoted cell whose content starts at data[pos] and
// returns it with the position after its closing quote, or nil if there is
// none. "" and \r\n are unescaped in place — ReadCSV owns data — and the
// bytes that frees become spaces, which keeps data's newline count.
func unquote(data []byte, pos int) ([]byte, int) {
	from, w := pos, pos
	for ; pos < len(data); pos++ {
		c := data[pos]
		if c == '"' {
			if pos++; pos == len(data) || data[pos] != '"' {
				for i := w; i < pos-1; i++ {
					data[i] = ' '
				}
				return data[from:w:w], pos
			}
		} else if c == '\r' && pos+1 < len(data) && data[pos+1] == '\n' {
			continue
		}
		data[w] = c
		w++
	}
	return nil, pos
}

// segment is one worker's share of the records: it fills rows
// [base, base+rows) of the columns, coding key and categorical cells
// against dictionaries of its own.
type segment struct {
	data      []byte
	off, base int    // of data in the input, of its rows in the columns
	rows      int    // parsed without error
	dicts     []dict // by column; unused for numeric ones
	// The first failure: its record's offset in the input, the failing
	// column (-1 for a malformed record) and the cause.
	errAt, errCol int
	err           error
}

// dict assigns codes to a column's distinct values as they first appear.
type dict struct {
	index  map[string]uint32
	values []string
}

func (d *dict) add(v string) uint32 {
	if d.index == nil {
		d.index = make(map[string]uint32)
	}
	code := uint32(len(d.values))
	d.index[v], d.values = code, append(d.values, v)
	return code
}

// cut splits body, which starts at offset off of the input, into at most n
// segments that end on a record boundary: a newline with an even number of
// quotes before it (a quoted cell holds every other newline; with no quotes
// that is every newline). A segment's base is the newline count before it,
// an upper bound on the records before it; bound is that for all of body.
func cut(body []byte, off, n, cols int) (segs []*segment, bound int) {
	from, pos, quotes := 0, 0, 0 // quotes counts those in body[:pos]
	for i := 1; from < len(body); i++ {
		if target := len(body) / n * i; i >= n {
			pos = len(body)
		} else if target > pos {
			quotes += bytes.Count(body[pos:target], []byte{'"'})
			pos = target
		}
		for pos < len(body) { // on to the end of the record
			if pos++; body[pos-1] == '"' {
				quotes++
			} else if body[pos-1] == '\n' && quotes%2 == 0 {
				break
			}
		}
		piece := body[from:pos]
		segs = append(segs, &segment{data: piece, off: off + from, base: bound, dicts: make([]dict, cols)})
		if bound += bytes.Count(piece, []byte{'\n'}); piece[len(piece)-1] != '\n' {
			bound++
		}
		from = pos
	}
	return segs, bound
}

func (s *segment) parse(cols []*Column) {
	rd, row := records{data: s.data}, s.base
	for {
		ok, err := rd.next()
		if err == nil && ok && len(rd.cells) != len(cols) {
			err = errFieldCount
		}
		if s.rows, s.errAt = row-s.base, s.off+rd.start; err != nil || !ok {
			s.errCol, s.err = -1, err
			return
		}
		for i, cell := range rd.cells {
			c := cols[i]
			if c.Kind == Numeric {
				v, ok := parseDecimal(cell)
				if !ok {
					if v, err = strconv.ParseFloat(string(cell), 64); err != nil {
						s.errCol, s.err = i, err
						return
					}
				}
				c.Nums[row] = v
				continue
			}
			code, ok := s.dicts[i].index[string(cell)]
			if !ok {
				code = s.dicts[i].add(string(cell))
			}
			c.Codes[row] = code
		}
		row++
	}
}

// parseDecimal converts a cell of the form [+-]digits[.digits] with at
// most 15 digits; ok is false for any other cell. The digits are an exact
// integer below 2⁵³ and 10^frac ≤ 1e15 is exact (math.Pow10 reads it from
// a table), so one correctly rounded division gives the nearest float64:
// strconv's own exact path (Clinger), bit-identical to strconv.ParseFloat,
// -0 included.
func parseDecimal(cell []byte) (v float64, ok bool) {
	i, neg := 0, false
	if len(cell) > 0 && (cell[0] == '+' || cell[0] == '-') {
		i, neg = 1, cell[0] == '-'
	}
	var m uint64
	digits, frac, dot := 0, 0, false
	for ; i < len(cell); i++ {
		switch c := cell[i]; {
		case '0' <= c && c <= '9' && digits < 15:
			m, digits = m*10+uint64(c-'0'), digits+1
			if dot {
				frac++
			}
		case c == '.' && !dot:
			dot = true
		default:
			return 0, false
		}
	}
	if digits == 0 {
		return 0, false
	}
	if v = float64(m); neg {
		v = -v
	}
	return v / math.Pow10(frac), true
}

// minSegment keeps small inputs on one goroutine.
const minSegment = 64 << 10

// ReadCSV parses a CSV stream with a header row into a table. kinds maps
// column names to kinds (default Numeric) and may name only columns the
// header has. The records are cut into GOMAXPROCS segments that are parsed
// concurrently, each into its own rows of the final columns; the segments'
// dictionaries are then merged in order, so the table — and the first
// error, if any — is the same for any GOMAXPROCS.
func ReadCSV(name string, r io.Reader, kinds map[string]ColumnKind) (*Table, error) {
	var buf bytes.Buffer
	if l, ok := r.(interface{ Len() int }); ok {
		buf.Grow(l.Len() + bytes.MinRead) // ReadFrom wants MinRead spare bytes to see EOF
	}
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("table: reading %s: %w", name, err)
	}
	return parseCSV(name, buf.Bytes(), kinds, min(runtime.GOMAXPROCS(0), buf.Len()/minSegment+1))
}

// parseCSV is ReadCSV over a buffer it may overwrite, cut into at most
// workers segments.
func parseCSV(name string, data []byte, kinds map[string]ColumnKind, workers int) (*Table, error) {
	line := func(at int) int { return 1 + bytes.Count(data[:at], []byte{'\n'}) }
	hdr := records{data: data}
	if ok, err := hdr.next(); !ok {
		return nil, fmt.Errorf("table: reading %s header: %w", name, cmp.Or(err, io.EOF))
	}
	t := &Table{Name: name}
	for _, cell := range hdr.cells {
		if _, err := t.Column(string(cell)); err == nil {
			return nil, fmt.Errorf("table: %s has two columns named %q", name, cell)
		}
		t.Cols = append(t.Cols, &Column{Name: string(cell), Kind: kinds[string(cell)]})
	}
	for cn, kind := range kinds {
		if _, err := t.Column(cn); err != nil {
			return nil, fmt.Errorf("%w (declared %s)", err, kind)
		}
	}

	segs, bound := cut(data[hdr.pos:], hdr.pos, workers, len(t.Cols))
	for _, c := range t.Cols {
		if c.Kind == Numeric {
			c.Nums = make([]float64, bound)
		} else {
			c.Codes = make([]uint32, bound)
		}
	}
	var wg sync.WaitGroup
	for _, s := range segs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.parse(t.Cols)
		}()
	}
	wg.Wait()

	for _, s := range segs {
		if s.err != nil && s.errCol < 0 {
			return nil, fmt.Errorf("table: reading %s: record on line %d: %w", name, line(s.errAt), s.err)
		} else if s.err != nil {
			return nil, fmt.Errorf("table: %s.%s row %d: %w", name, t.Cols[s.errCol].Name, t.rows+s.rows, s.err)
		}
		// Blank lines and multi-line cells before s leave a gap below its rows.
		for _, c := range t.Cols {
			if s.base == t.rows {
				break
			} else if c.Kind == Numeric {
				copy(c.Nums[t.rows:], c.Nums[s.base:s.base+s.rows])
			} else {
				copy(c.Codes[t.rows:], c.Codes[s.base:s.base+s.rows])
			}
		}
		s.base = t.rows
		t.rows += s.rows
	}
	for i, c := range t.Cols {
		if c.Kind == Numeric {
			c.Nums = c.Nums[:t.rows]
			continue
		}
		// Merge the dictionaries in segment order: a value's code is its
		// rank by first appearance in the whole input.
		var all dict
		for j, s := range segs {
			if j == 0 {
				all = s.dicts[i]
				continue
			}
			global := make([]uint32, len(s.dicts[i].values))
			for code, v := range s.dicts[i].values {
				g, ok := all.index[v]
				if !ok {
					g = all.add(v)
				}
				global[code] = g
			}
			for r := s.base; r < s.base+s.rows; r++ {
				c.Codes[r] = global[c.Codes[r]]
			}
		}
		c.Codes, c.Dict, c.index = c.Codes[:t.rows], all.values, all.index
	}
	return t, nil
}
