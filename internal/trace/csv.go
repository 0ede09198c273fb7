package trace

import (
	"io"
	"math"
	"strconv"
)

// CSV rendering. Both renderers format every cell with strconv into one
// byte buffer per render and hand it to the writer in chunks of about
// flushSize bytes: one write per chunk instead of one per row, and no
// per-cell allocation.

// flushSize is the chunk size a render hands to its writer.
const flushSize = 64 << 10

// csvWriter accumulates rows and flushes them to w once a chunk fills.
// After a failed write it stops writing and keeps the first error.
type csvWriter struct {
	w   io.Writer
	buf []byte
	err error
}

func newCSVWriter(w io.Writer) *csvWriter {
	return &csvWriter{w: w, buf: make([]byte, 0, flushSize+flushSize/4)}
}

// cell appends a comma and a formatted value.
func (c *csvWriter) cell(v float64) {
	c.buf = appendFloat(append(c.buf, ','), v)
}

// endRow terminates the current row, flushing a full chunk.
func (c *csvWriter) endRow() error {
	c.buf = append(c.buf, '\n')
	if len(c.buf) >= flushSize {
		return c.flush()
	}
	return c.err
}

// flush writes the buffered bytes.
func (c *csvWriter) flush() error {
	if c.err == nil && len(c.buf) > 0 {
		_, c.err = c.w.Write(c.buf)
	}
	c.buf = c.buf[:0]
	return c.err
}

// appendFloat formats one CSV cell: integral values below 1e15 in fixed
// point without a fraction, everything else with 9 significant digits.
// The bytes equal fmt's %.0f and %.9g, including -0, ±Inf and NaN.
// Integral cells go through AppendInt, which prints the same digits as
// AppendFloat's 'f' format (exact below 2⁵³) without its
// arbitrary-precision fallback.
func appendFloat(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		if v == 0 && math.Signbit(v) {
			return append(b, "-0"...)
		}
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', 9, 64)
}

// cursor answers Series.Sample for a non-decreasing sequence of query
// times in amortised O(1) per query: it walks the bracketing index
// forward instead of binary-searching for it, and interpolates with the
// same lerp, so each answer is bit-identical to Sample's.
type cursor struct {
	s *Series
	i int // first index whose timestamp exceeds the last query time
}

func (c *cursor) sample(t float64) float64 {
	s := c.s
	n := len(s.vs)
	if n == 0 {
		return 0
	}
	if t <= s.ts[0] {
		return s.vs[0]
	}
	if t >= s.ts[n-1] {
		return s.vs[n-1]
	}
	// ts[0] < t < ts[n-1]: the walk stops inside [1, n-1].
	for s.ts[c.i] <= t {
		c.i++
	}
	return s.lerp(c.i, t)
}

// WriteCSV writes all series as aligned CSV columns (time, then one column
// per series, values linearly interpolated onto the timestamps of the
// first series). For experiment output where all series share a clock
// this is exact. Every series must have non-decreasing timestamps — what
// the recorder's producers and DecodeRecorder guarantee.
func (r *Recorder) WriteCSV(w io.Writer) error {
	c := newCSVWriter(w)
	c.buf = append(c.buf, 't')
	cols := make([]cursor, len(r.order))
	for i, name := range r.order {
		s := r.series[name]
		c.buf = append(append(c.buf, ','), name...)
		if s.Unit != "" {
			c.buf = append(append(append(c.buf, '('), s.Unit...), ')')
		}
		cols[i] = cursor{s: s}
	}
	if err := c.endRow(); err != nil {
		return err
	}
	if len(cols) > 0 {
		for _, t := range cols[0].s.ts {
			c.buf = appendFloat(c.buf, t)
			for k := range cols {
				c.cell(cols[k].sample(t))
			}
			if err := c.endRow(); err != nil {
				return err
			}
		}
	}
	return c.flush()
}
