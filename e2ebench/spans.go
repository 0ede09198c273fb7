package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary, recorded by the
// benchmark around its own calls into the program. Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends. A nil *spanLog
// records nothing, so untraced runs pass nil and pay one branch.
type spanLog struct {
	t0 time.Time

	mu    sync.Mutex
	next  int64
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// openSpan is a span that has started but not ended.
type openSpan struct {
	log    *spanLog
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

// begin opens a span. On a nil log it returns a span whose end is a
// no-op; callers time their own measurements independently.
func (l *spanLog) begin(name string, parent, req int64) openSpan {
	if l == nil {
		return openSpan{}
	}
	l.mu.Lock()
	l.next++
	id := l.next
	l.mu.Unlock()
	return openSpan{log: l, id: id, parent: parent, req: req, name: name, start: time.Now()}
}

// newReq allocates a request id (0 on a nil log).
func (l *spanLog) newReq() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next++
	return l.next
}

// end closes the span and records it.
func (o openSpan) end() {
	if o.log == nil {
		return
	}
	now := time.Now()
	o.log.mu.Lock()
	o.log.spans = append(o.log.spans, span{
		ID: o.id, Parent: o.parent, Req: o.req, Name: o.name,
		Start: int64(o.start.Sub(o.log.t0)), End: int64(now.Sub(o.log.t0)),
	})
	o.log.mu.Unlock()
}

// selfRow is one line of the per-layer self-time table.
type selfRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// selfTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval its children cover (children
// may overlap, so their union is subtracted, clipped to the parent).
func selfTimes(spans []span) []selfRow {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := make(map[string]*selfRow)
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfRow{Name: s.Name}
			rows[s.Name] = r
		}
		r.Count++
		r.TotalMS += float64(s.End-s.Start) / 1e6
		r.SelfMS += float64(s.End-s.Start-covered(s, children[s.ID])) / 1e6
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// covered returns how much of parent's interval the union of kids
// covers, in nanoseconds.
func covered(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	for i, v := range iv {
		switch {
		case i == 0:
			curLo, curHi = v[0], v[1]
		case v[0] > curHi:
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
		case v[1] > curHi:
			curHi = v[1]
		}
	}
	if len(iv) > 0 {
		total += curHi - curLo
	}
	return total
}

// writeSelfTable renders the self-time table as text.
func writeSelfTable(w io.Writer, title string, rows []selfRow) {
	fmt.Fprintf(w, "%s\n%-44s %7s %12s %12s\n", title, "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-44s %7d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}

// traceDump is the file a traced run writes: every span, the self-time
// table, and the tracing overhead.
type traceDump struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Overhead overhead  `json:"tracing_overhead"`
	Table    []selfRow `json:"self_times"`
	Spans    []span    `json:"spans"`
}

// overhead compares the traced and untraced end-to-end round medians
// of the same seed.
type overhead struct {
	UntracedMS float64 `json:"untraced_round_ms_p50"`
	TracedMS   float64 `json:"traced_round_ms_p50"`
	DeltaMS    float64 `json:"delta_ms"`
	Pct        float64 `json:"pct"`
}

func writeDump(path string, d traceDump) error {
	data, err := json.MarshalIndent(d, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// median returns the median of xs (0 for none). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
