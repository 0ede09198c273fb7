package result

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/scenario"
	"repro/internal/trace"
)

// fig7Report runs the fig7 curated spec with its trace, the run behind
// the pinned fig7 golden trace.
func fig7Report(tb testing.TB) *Report {
	tb.Helper()
	sp, err := scenario.Load(filepath.Join(scenarioDir, "fig7-rectified-sine-hibernus.json"))
	if err != nil {
		tb.Fatal(err)
	}
	rep, err := RunSpec(sp, Options{Workers: 1, Trace: true})
	if err != nil {
		tb.Fatal(err)
	}
	return rep
}

// FuzzDecodeReport drives the report codec with hostile blobs — the
// bytes a disk CAS or a peer hands the daemon. Properties:
//
//  1. DecodeReport never panics, and CheckReport accepts exactly what
//     DecodeReport accepts.
//  2. An accepted blob re-encodes to a blob that decodes to the same
//     Text and TraceCSV — what the service serves from it.
func FuzzDecodeReport(f *testing.F) {
	// Seeds: the title line of every golden report as a traceless
	// report, and the fig7 run behind the pinned fig7 trace, cut to its
	// first rows. Seeds stay small on purpose: the fuzzer minimises each
	// input that finds new coverage with O(len²) byte-range deletions,
	// so a kilobyte-scale seed stalls fuzzing for seconds per find.
	goldens, _ := filepath.Glob(filepath.Join(goldenDir, "*.txt"))
	for _, path := range goldens {
		text, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(path), ".txt")
		title, _, _ := strings.Cut(string(text), "\n")
		data, err := EncodeReport(&Report{
			SpecHash: "sha256:" + name,
			Text:     title,
			Cases:    []CaseResult{{Name: name, Metrics: map[string]float64{"completions": 3}}},
		})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	rep := fig7Report(f)
	head := trace.NewRecorder()
	for _, name := range rep.Trace.Names() {
		s := rep.Trace.Series(name)
		for i := range min(s.Len(), 4) {
			head.Record(name, s.Unit, s.T(i), s.V(i))
		}
	}
	rep.Trace = head
	rep.Text, _, _ = strings.Cut(rep.Text, "\n")
	data, err := EncodeReport(rep)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Add([]byte(`{"codec":3,"engine":"1","spec_hash":"h","text":"t"}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := DecodeReport(data)
		if checkErr := CheckReport(data); (checkErr == nil) != (err == nil) {
			t.Fatalf("CheckReport and DecodeReport disagree: %v vs %v", checkErr, err)
		}
		if err != nil {
			return
		}
		again, err := EncodeReport(rep)
		if err != nil {
			t.Fatalf("accepted report failed to re-encode: %v", err)
		}
		back, err := DecodeReport(again)
		if err != nil {
			t.Fatalf("re-encoded report failed to decode: %v", err)
		}
		if back.Text != rep.Text {
			t.Fatalf("Text changed across a re-encode:\n%q\n%q", rep.Text, back.Text)
		}
		if !bytes.Equal(back.TraceCSV, rep.TraceCSV) {
			t.Fatal("TraceCSV changed across a re-encode")
		}
	})
}

// BenchmarkDecodeReport decodes the fig7 golden run's blob — the
// disk- and peer-hit read path — with and without the CSV render.
func BenchmarkDecodeReport(b *testing.B) {
	data, err := EncodeReport(fig7Report(b))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("decode", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := DecodeReport(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("check", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for b.Loop() {
			if err := CheckReport(data); err != nil {
				b.Fatal(err)
			}
		}
	})
}
