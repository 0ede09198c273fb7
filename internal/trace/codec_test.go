package trace

import (
	"bytes"
	"io"
	"math"
	"strings"
	"testing"
)

// TestDecodeRecorderRejectsMalformedColumns pins the decoder's input
// checks: each malformed recorder is an error naming its series.
func TestDecodeRecorderRejectsMalformedColumns(t *testing.T) {
	build := func(samples ...Point) []byte {
		r := NewRecorder()
		r.Record("ok", "V", 0, 1)
		for _, p := range samples {
			r.Record("bad", "V", p.T, p.V)
		}
		return EncodeRecorder(r)
	}
	// Two series whose names differ in their last byte; patching one
	// makes them collide.
	dupRec := NewRecorder()
	dupRec.Record("vcc", "V", 0, 1)
	dupRec.Record("vcd", "V", 0, 2)
	dup := EncodeRecorder(dupRec)
	dup[bytes.LastIndex(dup, []byte("vcd"))+2] = 'c'

	for _, tc := range []struct {
		name, series string
		blob         []byte
	}{
		{"NaN timestamp", "bad", build(Point{0, 1}, Point{math.NaN(), 2})},
		{"+Inf timestamp", "bad", build(Point{0, 1}, Point{math.Inf(1), 2})},
		{"-Inf timestamp", "bad", build(Point{math.Inf(-1), 1})},
		{"decreasing timestamps", "bad", build(Point{2, 1}, Point{1, 2})},
		{"duplicate series name", "vcc", dup},
	} {
		_, err := DecodeRecorder(tc.blob)
		if err == nil {
			t.Errorf("%s: decoded cleanly", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), `"`+tc.series+`"`) {
			t.Errorf("%s: error %q does not name series %q", tc.name, err, tc.series)
		}
	}
	// Repeated timestamps are a forward-moving clock, not a decrease.
	if _, err := DecodeRecorder(build(Point{1, 1}, Point{1, 2}, Point{2, 3})); err != nil {
		t.Errorf("repeated timestamps rejected: %v", err)
	}
}

// FuzzDecodeRecorder drives the recorder codec with hostile blobs — the
// trace frame of every cached report. Properties:
//
//  1. DecodeRecorder never panics.
//  2. An accepted blob is canonical: encode(decode(b)) == b.
//  3. Both renderers run to completion on an accepted recorder;
//     WriteWindowCSV fails only on a window CheckWindow rejects.
func FuzzDecodeRecorder(f *testing.F) {
	// Seeds are the first rows of each pinned trace, not whole traces:
	// the fuzzer minimises every input that finds new coverage, trying
	// O(len²) byte-range deletions, so a kilobyte-scale seed stalls
	// fuzzing at zero execs/s for the whole minimisation budget.
	for _, path := range goldenTraces(f) {
		r, _ := loadGoldenTrace(f, path)
		head := NewRecorder()
		for _, name := range r.Names() {
			s := r.Series(name)
			for i := range min(s.Len(), 4) {
				head.Record(name, s.Unit, s.T(i), s.V(i))
			}
		}
		f.Add(EncodeRecorder(head))
	}
	small := NewRecorder()
	small.SetInterval(0.5)
	small.Record("vcc", "V", 0, 2.5)
	small.Record("vcc", "V", 1, math.Copysign(0, -1))
	small.Record("mode", "", 1, 3)
	f.Add(EncodeRecorder(small))
	f.Add(EncodeRecorder(NewRecorder()))

	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeRecorder(data)
		if err != nil {
			return
		}
		if again := EncodeRecorder(r); !bytes.Equal(again, data) {
			t.Fatalf("re-encode differs from the accepted blob:\n%x\n%x", data, again)
		}
		if err := r.WriteCSV(io.Discard); err != nil {
			t.Fatalf("WriteCSV: %v", err)
		}
		from, to, ok := r.TimeRange()
		if !ok {
			return
		}
		for _, w := range [][2]float64{{from, to}, {from, from + (to-from)/3}, {from - 1, to + 1}} {
			err := r.WriteWindowCSV(io.Discard, w[0], w[1], 7)
			if (err == nil) != (CheckWindow(w[0], w[1], 7) == nil) {
				t.Fatalf("WriteWindowCSV(%g, %g) = %v, CheckWindow disagrees", w[0], w[1], err)
			}
		}
	})
}
