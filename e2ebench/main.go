// Command e2ebench benchmarks ehsimd from the outside: it runs the
// daemon in process (service.New behind a real loopback listener over a
// temp-dir CAS), drives one closed-loop workload against it through the
// public HTTP API, checks every served byte against the golden corpus,
// and prints one JSON line of metrics.
//
//	e2ebench -workload cold -seed 1 -seconds 10 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json;
// with -trace 1 it runs a fixed number of rounds untraced and traced,
// then drives the same seeded inputs through each layer's public
// functions directly, and reports the per-layer metrics. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets its deployment up; setup_s
// is the median and the last deployment is the one measured.
const setupRepeats = 3

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// options are the command-line settings.
type options struct {
	workload *workload
	seed     uint64
	seconds  float64
	traced   bool
	root     string
	out      string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: cold, replay or explore")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "length of the measured phase in seconds")
	traced := fs.Int("trace", 0, "1 runs the traced layer pass and reports per-layer metrics")
	root := fs.String("root", ".", "repository root holding examples/ and testdata/golden/")
	out := fs.String("out", filepath.Join(".bench_build", "e2ebench"), "directory for temporary CAS stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 2
	}
	if *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	opts := options{workload: w, seed: *seed, seconds: *seconds, traced: *traced == 1, root: *root, out: *out}
	rep, err := execute(context.Background(), opts, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// execute runs one benchmark invocation.
func execute(ctx context.Context, opts options, logw io.Writer) (*report, error) {
	b, err := newBench(opts)
	if err != nil {
		return nil, err
	}
	defer b.close()
	var m metricSet
	if opts.traced {
		m, err = b.tracedRun(ctx, opts.workload, opts, logw)
	} else {
		m, err = b.timedRun(ctx, opts.workload, time.Duration(opts.seconds*float64(time.Second)), logw)
	}
	if err != nil {
		return nil, err
	}
	for _, n := range b.tally.notes {
		fmt.Fprintf(logw, "e2ebench: FAILED: %s\n", n)
	}
	return &report{
		Correct:   b.tally.failed == 0,
		Attempted: b.tally.attempted,
		Failed:    b.tally.failed,
		Metrics:   m,
	}, nil
}

// newBench loads the corpus, makes the run's scratch directory and, for
// the replay workloads, the trace oracle.
func newBench(opts options) (*bench, error) {
	c, err := loadCorpus(opts.root)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(opts.out, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opts.out, "run-")
	if err != nil {
		return nil, err
	}
	b := &bench{seed: opts.seed, tmp: tmp, corpus: c, client: newClient(), tally: &tally{}}
	if opts.workload == wlReplay {
		if err := b.buildOracle(); err != nil {
			b.close()
			return nil, err
		}
	}
	return b, nil
}

// close releases the client's connections and removes the scratch
// directory.
func (b *bench) close() {
	b.client.close()
	if err := os.RemoveAll(b.tmp); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
	}
}

// phase is one measured stretch of closed-loop rounds.
type phase struct {
	roundMS []float64
	ops     int
	busy    time.Duration // summed round time
}

// measure runs the client in a closed loop: it starts its next round
// only when the previous one has finished. With fixed > 0 it runs
// exactly that many rounds; otherwise it starts rounds until dur has
// passed, and the round already started runs to completion.
func (b *bench) measure(ctx context.Context, d *deployment, dur time.Duration, fixed int, log *spanLog) phase {
	var ph phase
	start := time.Now()
	for i := 0; ; i++ {
		if (fixed > 0 && i >= fixed) || (fixed == 0 && time.Since(start) >= dur) {
			return ph
		}
		req := log.newReq()
		sp := log.begin("round."+d.w.name, 0, req)
		t0 := time.Now()
		n := d.round(ctx, b, log, sp.id, req)
		took := time.Since(t0)
		sp.end()
		ph.roundMS = append(ph.roundMS, ms(took))
		ph.ops += n
		ph.busy += took
	}
}

// snapshot scrapes every node's /metrics.
func (b *bench) snapshot(ctx context.Context, d *deployment) ([]map[string]float64, error) {
	var out []map[string]float64
	for _, n := range d.nodes {
		c, err := b.client.counters(ctx, n.url)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// checkCounters compares each node's /metrics deltas between two
// snapshots with the exact values the given number of rounds implies,
// counting one operation. It returns the deltas summed over the nodes.
func (b *bench) checkCounters(w *workload, before, after []map[string]float64, rounds int) map[string]float64 {
	sum := make(map[string]float64)
	ok := true
	for i, want := range b.expectedCounters(w, rounds) {
		for _, k := range checkedCounters {
			delta := after[i][k] - before[i][k]
			sum[k] += delta
			if delta != want[k] {
				ok = false
				b.tally.check(false, "node %d: counter %s moved by %g, plan says %g", i, k, delta, want[k])
			}
		}
	}
	if ok {
		b.tally.check(true, "")
	}
	return sum
}

// timedRun is the untraced end-to-end run.
func (b *bench) timedRun(ctx context.Context, w *workload, dur time.Duration, logw io.Writer) (metricSet, error) {
	var setups []float64
	var d *deployment
	for i := range setupRepeats {
		t0 := time.Now()
		dd, err := b.deploy(ctx, w, fmt.Sprintf("p%d", i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			dd.close()
		} else {
			d = dd
		}
	}
	defer d.close()

	before, err := b.snapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	ph := b.measure(ctx, d, dur, 0, nil)
	after, err := b.snapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	b.checkCounters(w, before, after, len(ph.roundMS))

	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)

	m := metricSet{}
	m.set("setup_s", "s", median(setups))
	m.set("heap_retained_mb", "MiB", float64(mem.HeapAlloc)/(1<<20))
	m.set("round_ms.p50", "ms", median(ph.roundMS))
	m.set("ops_per_s", "1/s", float64(ph.ops)/ph.busy.Seconds())
	q := append([]float64(nil), ph.roundMS...)
	sort.Float64s(q)
	fmt.Fprintf(logw, "e2ebench: %s seed %d: %d rounds, %d %s in %.2fs; round ms min %.3f p50 %.3f max %.3f; setups %.3v s; poll interval %v\n",
		w.name, b.seed, len(q), ph.ops, opsUnit(w), ph.busy.Seconds(), q[0], median(q), q[len(q)-1], setups, explorePoll)
	return m, nil
}

func opsUnit(w *workload) string {
	if w == wlExplore {
		return "probes"
	}
	return "jobs"
}

// tracedRun drives fixed rounds untraced and traced, runs the layer
// pass, writes the spans and the self-time table, and returns the
// per-layer metrics.
func (b *bench) tracedRun(ctx context.Context, w *workload, opts options, logw io.Writer) (metricSet, error) {
	d, err := b.deploy(ctx, w, "t")
	if err != nil {
		return nil, err
	}
	defer d.close()
	before, err := b.snapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	// Untraced and traced phases alternate ABBA, so drift over the run
	// (heap growth, page cache) cancels out of the overhead estimate.
	var plain, traced phase
	log := newSpanLog()
	for _, on := range []bool{false, true, true, false} {
		dst, l := &plain, (*spanLog)(nil)
		if on {
			dst, l = &traced, log
		}
		ph := b.measure(ctx, d, 0, w.tracedRounds, l)
		dst.roundMS = append(dst.roundMS, ph.roundMS...)
		dst.ops += ph.ops
	}
	after, err := b.snapshot(ctx, d)
	if err != nil {
		return nil, err
	}
	delta := b.checkCounters(w, before, after, len(plain.roundMS)+len(traced.roundMS))

	m, err := b.layerPass(ctx, log)
	if err != nil {
		return nil, err
	}
	for _, c := range []struct{ metric, counter string }{
		{"service.cache_hits", "ehsimd_cache_hits_total"},
		{"service.disk_hits", "ehsimd_disk_hits_total"},
		{"service.peer_hits", "ehsimd_peer_hits_total"},
		{"service.peer_errors", "ehsimd_peer_errors_total"},
		{"service.explore_probes", "ehsimd_explore_probes_total"},
		{"service.explore_hits", "ehsimd_explore_cache_hits_total"},
	} {
		m.set(c.metric, "count", delta[c.counter])
	}
	oh := overhead{UntracedMS: median(plain.roundMS), TracedMS: median(traced.roundMS)}
	oh.DeltaMS = oh.TracedMS - oh.UntracedMS
	oh.Pct = 100 * oh.DeltaMS / oh.UntracedMS
	m.set("tracing.overhead_pct", "%", oh.Pct)

	rows := selfTimes(log.spans)
	writeSelfTable(logw, fmt.Sprintf("self times, workload %s seed %d (tracing overhead %+.3f ms = %+.2f%% of a %.3f ms round):",
		w.name, b.seed, oh.DeltaMS, oh.Pct, oh.UntracedMS), rows)
	path := filepath.Join(opts.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, b.seed))
	if err := writeDump(path, traceDump{Workload: w.name, Seed: b.seed, Overhead: oh, Table: rows, Spans: log.spans}); err != nil {
		return nil, err
	}
	fmt.Fprintf(logw, "e2ebench: spans written to %s\n", path)
	return m, nil
}
