package service

import (
	"math"
	"net/url"
	"testing"

	"repro/internal/trace"
)

// FuzzTraceQuery drives the windowed /trace query parser with hostile
// query strings and trace spans, pinning three properties:
//
//  1. parseTraceQuery never panics.
//  2. An accepted query has finite from < to that pass
//     trace.CheckWindow, so the handler never starts a 200 it cannot
//     finish.
//  3. An accepted points lies in [1, maxTracePoints].
func FuzzTraceQuery(f *testing.F) {
	f.Add("", 0.0, 3.0)
	f.Add("from=0.5&to=1.5&points=64", 0.0, 3.0)
	f.Add("points=20000", 0.0, 3.0)
	f.Add("from=1&to=1", 0.0, 3.0)
	f.Add("from=2", 0.0, 1.0)
	f.Add("from=-1e308&to=1e308", 0.0, 3.0)
	f.Add("from=NaN&to=Inf&points=-3", 0.0, 3.0)
	f.Add("from=0x1p-1074&to=5e-324&points=9999999999999999999", 0.0, 3.0)
	f.Add("to=%zz&points=1;from=0", 0.0, 3.0)
	f.Add("points=", 1.5, 1.5)
	f.Add("from=0.25&from=0.75&to=1e-3&points=00012", -2.0, 86400.0)

	f.Fuzz(func(t *testing.T, raw string, lo, hi float64) {
		q, _ := url.ParseQuery(raw) // keeps every pair it could parse
		from, to, points, err := parseTraceQuery(q, lo, hi)
		if err != nil {
			return // a 400; not panicking is the property
		}
		if math.IsNaN(from) || math.IsInf(from, 0) || math.IsNaN(to) || math.IsInf(to, 0) || !(from < to) {
			t.Fatalf("accepted window [%v, %v] is not finite and ordered", from, to)
		}
		if err := trace.CheckWindow(from, to, points); err != nil {
			t.Fatalf("accepted window fails CheckWindow: %v", err)
		}
		if points < 1 || points > maxTracePoints {
			t.Fatalf("accepted points = %d, want 1..%d", points, maxTracePoints)
		}
	})
}
