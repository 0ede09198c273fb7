package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// oracleWriteCSV is the fmt-based CSV renderer WriteCSV replaced, kept
// verbatim as the byte-identity reference: a binary search per cell via
// Sample, fmt for every value, strings.Join for every row.
func oracleWriteCSV(r *Recorder, w io.Writer) error {
	if len(r.order) == 0 {
		_, err := fmt.Fprintln(w, "t")
		return err
	}
	header := []string{"t"}
	for _, name := range r.order {
		s := r.series[name]
		col := name
		if s.Unit != "" {
			col = fmt.Sprintf("%s(%s)", name, s.Unit)
		}
		header = append(header, col)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	base := r.series[r.order[0]]
	for i := 0; i < base.Len(); i++ {
		t := base.ts[i]
		row := make([]string, 0, len(r.order)+1)
		row = append(row, oracleFormatFloat(t))
		for _, name := range r.order {
			row = append(row, oracleFormatFloat(r.series[name].Sample(t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// oracleWriteWindowCSV is the fmt-based windowed renderer, the same
// reference for WriteWindowCSV.
func oracleWriteWindowCSV(r *Recorder, w io.Writer, from, to float64, points int) error {
	if len(r.order) == 0 {
		_, err := fmt.Fprintln(w, "t")
		return err
	}
	header := []string{"t"}
	for _, name := range r.order {
		s := r.series[name]
		unit := ""
		if s.Unit != "" {
			unit = "(" + s.Unit + ")"
		}
		header = append(header, name+"_min"+unit, name+"_max"+unit)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	windows := make([][]Bucket, len(r.order))
	for i, name := range r.order {
		windows[i] = r.series[name].Window(from, to, points)
	}
	for b := 0; b < points; b++ {
		row := make([]string, 0, 2*len(r.order)+1)
		row = append(row, oracleFormatFloat(windows[0][b].T))
		for i := range r.order {
			bk := windows[i][b]
			row = append(row, oracleFormatFloat(bk.Min), oracleFormatFloat(bk.Max))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

func oracleFormatFloat(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%.0f", v)
	}
	return fmt.Sprintf("%.9g", v)
}

// edgeValues are the cells where a hand-rolled formatter could drift
// from fmt: signed zeros, the 1e15 fixed/exponent boundary, subnormals,
// non-finite values and long mantissas.
var edgeValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.5,
	1e15, -1e15, 1e15 - 1, -(1e15 - 1), 1e15 + 2, math.Nextafter(1e15, 0), math.Nextafter(-1e15, 0),
	999999999999999.9, 1e14 + 0.5, 123456789012,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, 1e-310,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	1.0 / 3, 2.0 / 3, 0.1, 1e-9, 123456789.123456789, 1e21, 1e-5,
}

func TestAppendFloatMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	vals := append([]float64{}, edgeValues...)
	for range 20000 {
		vals = append(vals, randomValue(rng), math.Float64frombits(rng.Uint64()))
	}
	for _, v := range vals {
		if got, want := string(appendFloat(nil, v)), oracleFormatFloat(v); got != want {
			t.Fatalf("appendFloat(%v [%#x]) = %q, fmt gives %q", v, math.Float64bits(v), got, want)
		}
	}
}

// randomValue draws a cell value: an edge value, a small integer, or a
// normal deviate scaled across forty decades.
func randomValue(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return edgeValues[rng.Intn(len(edgeValues))]
	case 1:
		return float64(rng.Intn(1000) - 500)
	default:
		return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
	}
}

// randomClock draws n non-decreasing timestamps: integer or fractional
// steps across many decades, with repeated timestamps mixed in.
func randomClock(rng *rand.Rand, n int) []float64 {
	ts := make([]float64, n)
	t := float64(rng.Intn(7) - 3)
	if rng.Intn(2) == 0 {
		t *= rng.Float64()
	}
	integral := rng.Intn(3) == 0
	for i := range ts {
		ts[i] = t
		switch {
		case rng.Intn(5) == 0:
			// Duplicate timestamp.
		case integral:
			t += float64(1 + rng.Intn(3))
		default:
			t += rng.Float64() * math.Pow(10, float64(rng.Intn(12)-9))
		}
	}
	return ts
}

// randomRecorder builds a recorder of 0–4 series on one shared clock or
// on disjoint clocks, with empty and one-sample series among them.
func randomRecorder(rng *rand.Rand) *Recorder {
	r := NewRecorder()
	shared := rng.Intn(2) == 0
	clock := randomClock(rng, rng.Intn(60))
	for k := range rng.Intn(5) {
		ch := r.Channel(fmt.Sprintf("s%d", k), []string{"", "V", "MHz"}[rng.Intn(3)])
		ts := clock
		if !shared {
			ts = randomClock(rng, []int{0, 1, rng.Intn(60)}[rng.Intn(3)])
		}
		for _, t := range ts {
			ch.Record(t, randomValue(rng))
		}
	}
	return r
}

func TestWriteCSVMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := range 3000 {
		r := randomRecorder(rng)
		var got, want bytes.Buffer
		if err := r.WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteCSV(r, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("recorder %d: CSV differs from the fmt oracle\n--- want\n%s\n--- got\n%s", i, want.Bytes(), got.Bytes())
		}
		from, to, ok := r.TimeRange()
		if !ok || CheckWindow(from, to, 1) != nil {
			continue
		}
		points := 1 + rng.Intn(20)
		got.Reset()
		want.Reset()
		if err := r.WriteWindowCSV(&got, from, to, points); err != nil {
			t.Fatal(err)
		}
		if err := oracleWriteWindowCSV(r, &want, from, to, points); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("recorder %d: window CSV differs from the fmt oracle\n--- want\n%s\n--- got\n%s", i, want.Bytes(), got.Bytes())
		}
	}
}

// TestCursorMatchesSampleOnDuplicates pins the interpolation cases the
// cursor must reproduce exactly: a query landing on a run of repeated
// timestamps takes Sample's bracket, and -0 + 0·x keeps Sample's sign.
func TestCursorMatchesSampleOnDuplicates(t *testing.T) {
	s := NewSeries("d", "")
	negZero := math.Copysign(0, -1)
	for _, p := range []Point{{0, 1}, {1, negZero}, {1, 5}, {1, 7}, {2, negZero}, {3, 4}, {3, 8}, {4, math.Inf(1)}, {5, 2}} {
		s.Append(p.T, p.V)
	}
	c := cursor{s: s}
	for _, q := range []float64{-1, 0, 0.5, 1, 1, 1.5, 2, 2.5, 3, 3.5, 4, 4.5, 5, 6} {
		got, want := c.sample(q), s.Sample(q)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Errorf("cursor at %g = %v, Sample gives %v", q, got, want)
		}
	}
}

// chunkWriter records the size of every write it receives.
type chunkWriter struct {
	bytes.Buffer
	sizes []int
}

func (c *chunkWriter) Write(p []byte) (int, error) {
	c.sizes = append(c.sizes, len(p))
	return c.Buffer.Write(p)
}

func TestWriteCSVStreamsInChunks(t *testing.T) {
	r := NewRecorder()
	for i := range 20000 {
		r.Record("vcc", "V", float64(i)*1e-5, math.Sin(float64(i)/100))
		r.Record("mode", "", float64(i)*1e-5, float64(i%3))
	}
	var w chunkWriter
	if err := r.WriteCSV(&w); err != nil {
		t.Fatal(err)
	}
	if len(w.sizes) < 2 {
		t.Fatalf("a %d-byte render arrived in %d write(s), want chunks", w.Len(), len(w.sizes))
	}
	for i, n := range w.sizes {
		if n > flushSize+1024 {
			t.Errorf("write %d carried %d bytes, over the %d-byte chunk size", i, n, flushSize)
		}
	}
	var want bytes.Buffer
	if err := oracleWriteCSV(r, &want); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Bytes(), want.Bytes()) {
		t.Fatal("chunked render differs from the fmt oracle")
	}
}

// failWriter accepts limit bytes, then fails every write.
type failWriter struct{ limit int }

var errSink = errors.New("sink closed")

func (f *failWriter) Write(p []byte) (int, error) {
	if len(p) > f.limit {
		return 0, errSink
	}
	f.limit -= len(p)
	return len(p), nil
}

func TestWriteCSVReportsWriteError(t *testing.T) {
	r := NewRecorder()
	for i := range 20000 {
		r.Record("vcc", "V", float64(i), float64(i))
	}
	for _, limit := range []int{0, flushSize + 4096} {
		if err := r.WriteCSV(&failWriter{limit: limit}); !errors.Is(err, errSink) {
			t.Errorf("limit %d: WriteCSV error = %v, want the writer's", limit, err)
		}
		if err := r.WriteWindowCSV(&failWriter{limit: limit}, 0, 20000, 10000); !errors.Is(err, errSink) {
			t.Errorf("limit %d: WriteWindowCSV error = %v, want the writer's", limit, err)
		}
	}
}

func TestWriteWindowCSVRejectsEmptyWindowBeforeWriting(t *testing.T) {
	r := NewRecorder()
	r.Record("a", "V", 1, 2)
	for _, q := range []struct {
		from, to float64
		points   int
	}{
		{1, 1, 4}, {2, 1, 4}, {0, 1, 0}, {math.NaN(), 1, 4},
		{math.Inf(-1), 1, 4}, {0, math.Inf(1), 4}, {-math.MaxFloat64, math.MaxFloat64, 4},
	} {
		var b strings.Builder
		if err := r.WriteWindowCSV(&b, q.from, q.to, q.points); err == nil || b.Len() != 0 {
			t.Errorf("window %+v: err %v after writing %q, want an error and no bytes", q, err, b.String())
		}
	}
}

// goldenTraceDir holds the pinned trace CSVs rendered from the curated
// scenarios.
const goldenTraceDir = "../../testdata/golden"

// goldenTraces lists the pinned trace CSVs.
func goldenTraces(tb testing.TB) []string {
	tb.Helper()
	paths, err := filepath.Glob(filepath.Join(goldenTraceDir, "*.trace.csv"))
	if err != nil || len(paths) == 0 {
		tb.Fatalf("no golden traces: %v", err)
	}
	return paths
}

// loadGoldenTrace rebuilds the recorder behind a pinned trace CSV and
// returns it with the CSV body (the file minus its spec-hash comment).
// Every pinned trace shares one clock across its columns, and its cells
// re-parse to values that render to the same text, so rendering the
// rebuilt recorder must reproduce the body byte for byte.
func loadGoldenTrace(tb testing.TB, path string) (*Recorder, []byte) {
	tb.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	_, body, ok := bytes.Cut(data, []byte("\n"))
	if !ok || !bytes.HasPrefix(data, []byte("# spec-hash: ")) {
		tb.Fatalf("%s: no spec-hash comment line", path)
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Scan()
	var names, units []string
	for _, col := range strings.Split(sc.Text(), ",")[1:] {
		name, unit, _ := strings.Cut(strings.TrimSuffix(col, ")"), "(")
		names, units = append(names, name), append(units, unit)
	}
	r := NewRecorder()
	for sc.Scan() {
		cells := strings.Split(sc.Text(), ",")
		vals := make([]float64, len(cells))
		for i, c := range cells {
			if vals[i], err = strconv.ParseFloat(c, 64); err != nil {
				tb.Fatalf("%s: %v", path, err)
			}
		}
		for i, name := range names {
			r.Record(name, units[i], vals[0], vals[i+1])
		}
	}
	return r, body
}

func TestWriteCSVReproducesGoldenTraces(t *testing.T) {
	for _, path := range goldenTraces(t) {
		r, body := loadGoldenTrace(t, path)
		var b bytes.Buffer
		if err := r.WriteCSV(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b.Bytes(), body) {
			t.Errorf("%s: re-rendered CSV differs from the pinned file", path)
		}
	}
}

// BenchmarkWriteCSV renders the fig7 golden trace with the streaming
// renderer and with the fmt oracle it replaced.
func BenchmarkWriteCSV(b *testing.B) {
	r, body := loadGoldenTrace(b, filepath.Join(goldenTraceDir, "fig7-rectified-sine-hibernus.trace.csv"))
	for _, bc := range []struct {
		name   string
		render func(io.Writer) error
	}{
		{"streaming", r.WriteCSV},
		{"fmt-oracle", func(w io.Writer) error { return oracleWriteCSV(r, w) }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				if err := bc.render(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
