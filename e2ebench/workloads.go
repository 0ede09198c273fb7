package main

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math/rand/v2"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/result"
	"repro/internal/service"
)

// Tier names: the JobStatus.Source value a batch plans for.
const (
	tierCompute = service.SourceCompute
	tierMemory  = service.SourceCache
	tierDisk    = service.SourceDisk
	tierPeer    = service.SourcePeer
)

// Replay sizing. Rounds alternate between replayCopies renamed copies of
// the 7 single-run curated specs. Both nodes' memory tiers hold
// tierCacheBound reports — one copy — so a copy that comes round again
// has been pushed out by the other and must come from the colder tier
// the round plans.
const (
	replayCopies   = 2
	tierCacheBound = 7
	zoomSequences  = 4   // seeded zoom sequences per trace in the oracle pool
	zoomDepth      = 4   // windows per zoom sequence, each 4× narrower
	zoomPoints     = 256 // buckets per window
	explorePoll    = 5 * time.Millisecond
)

// workload is one closed-loop traffic mix against an in-process daemon.
//
// Every workload has one client. With two, the two closed loops lock
// into a relative phase early in a run and keep it, and whether their
// batches overlap decided the round median: back-to-back runs of one
// seed gave disk-hit round medians of 96–140 ms with two clients and
// 63–73 ms with one. The daemon's two job workers still run each
// batch's jobs in parallel.
type workload struct {
	name string
	// tracedRounds is the fixed number of rounds in each of a traced
	// run's four phases, so its counters repeat exactly.
	tracedRounds int
}

// The workloads; README.md gives each one's reason and dominant layer.
var (
	// 8-spec batches of never-seen keys: the full write path.
	wlCold = &workload{name: "cold", tracedRounds: 2}
	// 7-spec batches from the peer, disk and memory tiers in turn, plus
	// trace reads: no engine work at all.
	wlReplay = &workload{name: "replay", tracedRounds: 8}
	// The 3 curated explorations under new names: every probe cold.
	wlExplore = &workload{name: "explore", tracedRounds: 1}

	workloads = []*workload{wlCold, wlReplay, wlExplore}
)

// lookupWorkload resolves a workload name.
func lookupWorkload(name string) (*workload, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// bench is one benchmark process's shared state.
type bench struct {
	seed   uint64
	tmp    string // scratch root for CAS directories, inside the checkout
	corpus *corpus
	client *client
	tally  *tally
	oracle *traceOracle // nil unless the workload is replay
}

// rng derives an independent seeded stream.
func (b *bench) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(b.seed, stream))
}

// tally counts attempted and failed operations. A failure is any
// error or any served byte that differs from the oracle.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	notes     []string
}

// check counts one attempted operation; ok=false counts it as failed
// and keeps the first few reasons for the log.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.attempted++
	if !ok {
		t.failed++
		if len(t.notes) < 20 {
			t.notes = append(t.notes, fmt.Sprintf(format, args...))
		}
	}
	return ok
}

// deployment is one booted set of nodes serving a workload.
type deployment struct {
	w *workload
	// nodes[0] is the node the client talks to and, for replay, the
	// owner A; nodes[1] is replay's storeless peer B.
	nodes []*node

	rng  *rand.Rand // the client's seeded stream
	next int        // next round number (continues across phases)
	tag  string     // distinguishes repeated set-ups' names

	ws [][]*input // replay working set: [copy][spec]
}

func (d *deployment) close() {
	for _, n := range d.nodes {
		if err := n.close(); err != nil {
			fmt.Fprintf(os.Stderr, "e2ebench: closing node: %v\n", err)
		}
	}
}

// deploy boots the workload's nodes and brings them to the state its
// rounds expect; this is the benchmark's set-up.
func (b *bench) deploy(ctx context.Context, w *workload, tag string) (*deployment, error) {
	d := &deployment{w: w, tag: tag, rng: b.rng(100)}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	dir, err := os.MkdirTemp(b.tmp, "cas-")
	if err != nil {
		return nil, err
	}
	cfg := service.Config{JobWorkers: 2, JobHistory: 64, CacheEntries: 64}
	if w == wlReplay {
		cfg.CacheEntries = tierCacheBound
	}
	a, err := startNode(dir, cfg)
	if err != nil {
		return nil, err
	}
	d.nodes = append(d.nodes, a)

	switch w {
	case wlCold:
		// Prime with one cold batch: code paths, heap and connections
		// warm before the measured phase.
		d.coldRound(ctx, b, nil, 0, 0, "prime")
	case wlReplay:
		cfg.Peers = []string{a.url}
		pn, err := startNode("", cfg)
		if err != nil {
			return nil, err
		}
		d.nodes = append(d.nodes, pn)
		if err := b.buildWorkingSet(d, []string{a.url, pn.url}, a.url); err != nil {
			return nil, err
		}
		if err := b.computeWorkingSet(ctx, d, a.url); err != nil {
			return nil, err
		}
		// Empty A's memory tier: the first round of each copy must read
		// it from disk, like every later one.
		if err := a.restart(); err != nil {
			return nil, err
		}
	default:
		// Explorations: prime with the two grid explorations; the
		// engine-bound bisection would only lengthen set-up.
		for _, e := range b.corpus.explorations {
			if e.name != "eq5-crossover" {
				b.exploreOne(ctx, a.url, e, "."+tag+".prime", nil, 0, 0)
			}
		}
	}
	ok = true
	return d, nil
}

// buildWorkingSet names the replay working set: replayCopies renamed
// copies of every single-run curated spec. Only names the rendezvous
// hash over ring assigns to owner are kept, so every peer lookup goes to
// the node holding the data.
func (b *bench) buildWorkingSet(d *deployment, ring []string, owner string) error {
	for k := range replayCopies {
		var set []*input
		for _, doc := range b.corpus.single {
			for attempt := 0; ; attempt++ {
				name := fmt.Sprintf("%s.s%d.%s.w%d.%d", doc.name, b.seed, d.tag, k, attempt)
				in, err := rename(doc, name)
				if err != nil {
					return err
				}
				if service.Owner(ring, in.hash) == owner {
					set = append(set, in)
					break
				}
			}
		}
		d.ws = append(d.ws, set)
	}
	return nil
}

// computeWorkingSet runs the whole working set on the owner as one
// batch, checking every report.
func (b *bench) computeWorkingSet(ctx context.Context, d *deployment, owner string) error {
	var all []*input
	for _, set := range d.ws {
		all = append(all, set...)
	}
	if _, done := b.checkBatch(ctx, owner, tierCompute, all, nil, 0, 0); done != len(all) {
		return fmt.Errorf("computing the working set: %d of %d jobs failed their checks", len(all)-done, len(all))
	}
	return nil
}

// round runs the client's next round and returns the operations it
// completed (jobs, or probes for explorations).
func (d *deployment) round(ctx context.Context, b *bench, log *spanLog, parent, req int64) int {
	r := d.next
	d.next++
	switch d.w {
	case wlCold:
		return d.coldRound(ctx, b, log, parent, req, "r"+strconv.Itoa(r))
	case wlReplay:
		return d.replayRound(ctx, b, r, log, parent, req)
	default:
		return d.exploreRound(ctx, b, r, log, parent, req)
	}
}

// coldRound posts all 8 curated scenarios, freshly renamed and in
// seeded order, as one batch.
func (d *deployment) coldRound(ctx context.Context, b *bench, log *spanLog, parent, req int64, label string) int {
	docs := append([]*scenarioDoc(nil), b.corpus.scenarios...)
	d.rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	ins := make([]*input, len(docs))
	for i, doc := range docs {
		in, err := rename(doc, fmt.Sprintf("%s.s%d.%s.%s", doc.name, b.seed, d.tag, label))
		if err != nil {
			b.tally.check(false, "renaming %s: %v", doc.name, err)
			return 0
		}
		ins[i] = in
	}
	_, done := b.checkBatch(ctx, d.nodes[0].url, tierCompute, ins, log, parent, req)
	return done
}

// checkBatch posts ins as one batch and checks every line against the
// oracle and the planned tier. It returns each job's id and the number
// of jobs that passed.
func (b *bench) checkBatch(ctx context.Context, url, tier string, ins []*input, log *spanLog, parent, req int64) ([]string, int) {
	specs := make([][]byte, len(ins))
	for i, in := range ins {
		specs[i] = in.body
	}
	sp := log.begin("http.batch."+tier, parent, req)
	lines, err := b.client.batch(ctx, url, specs)
	sp.end()
	ids := make([]string, len(ins))
	if err != nil {
		for range ins {
			b.tally.check(false, "batch: %v", err)
		}
		return ids, 0
	}
	done := 0
	for i, l := range lines {
		in := ins[i]
		ok := b.tally.check(l.State == "done" && l.Hash == in.hash && in.textOK(l.Result),
			"job %s: state %q error %q hash match %v text match %v", in.name, l.State, l.Error, l.Hash == in.hash, in.textOK(l.Result))
		ok = b.tally.check(l.Source == tier, "job %s: served from %q, planned %q", in.name, l.Source, tier) && ok
		if ok {
			done++
		}
		ids[i] = l.ID
	}
	return ids, done
}

// replayRound posts one copy of the working set three times — to B,
// whose memory holds only the other copy, so B fetches each report from
// its owner A, which has it only on disk (peer); to A (disk); to A again
// at once (memory) — then reads every job's full trace and one seeded
// zoom sequence from A.
func (d *deployment) replayRound(ctx context.Context, b *bench, r int, log *spanLog, parent, req int64) int {
	ins := append([]*input(nil), d.ws[r%replayCopies]...)
	d.rng.Shuffle(len(ins), func(i, j int) { ins[i], ins[j] = ins[j], ins[i] })
	a, pn := d.nodes[0].url, d.nodes[1].url
	_, peer := b.checkBatch(ctx, pn, tierPeer, ins, log, parent, req)
	_, disk := b.checkBatch(ctx, a, tierDisk, ins, log, parent, req)
	ids, mem := b.checkBatch(ctx, a, tierMemory, ins, log, parent, req)

	for i, in := range ins {
		sp := log.begin("http.trace_full", parent, req)
		body, err := b.client.get(ctx, a+"/v1/jobs/"+ids[i]+"/trace")
		sp.end()
		b.tally.check(err == nil && b.oracle.fullOK(in, body), "full trace of %s: err %v", in.name, err)
	}

	i := d.rng.IntN(len(ins))
	pick := ins[i]
	seq := b.oracle.zoom[pick.doc.name][d.rng.IntN(zoomSequences)]
	for _, z := range seq {
		q := fmt.Sprintf("?from=%s&to=%s&points=%d", fmtFloat(z.from), fmtFloat(z.to), zoomPoints)
		sp := log.begin("http.trace_zoom", parent, req)
		body, err := b.client.get(ctx, a+"/v1/jobs/"+ids[i]+"/trace"+q)
		sp.end()
		b.tally.check(err == nil && headedBody(body, pick.hash, z.want), "zoom %s%s: err %v", pick.name, q, err)
	}
	return disk + mem + peer
}

func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// exploreRound submits the 3 curated explorations one after another,
// each under a new exploration and base name. The order is fixed, so
// the memory tier holds the same mix of probe reports whenever a run
// stops and the retained heap does not depend on where it stopped.
func (d *deployment) exploreRound(ctx context.Context, b *bench, r int, log *spanLog, parent, req int64) int {
	probes := 0
	for _, e := range b.corpus.explorations {
		probes += b.exploreOne(ctx, d.nodes[0].url, e, fmt.Sprintf(".s%d.%s.r%d", b.seed, d.tag, r), log, parent, req)
	}
	return probes
}

// exploreOne runs one renamed exploration through the daemon and checks
// its report; it returns the exploration's probe count on success.
func (b *bench) exploreOne(ctx context.Context, url string, e *explorationDoc, suffix string, log *spanLog, parent, req int64) int {
	body, name, err := renameExploration(e, suffix)
	if err != nil {
		b.tally.check(false, "renaming %s: %v", e.name, err)
		return 0
	}
	sp := log.begin("http.explore."+e.name, parent, req)
	text, err := b.client.explore(ctx, url, body, explorePoll)
	sp.end()
	if !b.tally.check(err == nil && explorationTextOK(e, name, text), "exploration %s: err %v", name, err) {
		return 0
	}
	return e.probes
}

// checkedCounters are the /metrics counters whose deltas each phase
// must match exactly.
var checkedCounters = []string{
	"ehsimd_cache_hits_total",
	"ehsimd_cache_misses_total",
	"ehsimd_disk_hits_total",
	"ehsimd_peer_hits_total",
	"ehsimd_peer_errors_total",
	"ehsimd_jobs_failed_total",
	"ehsimd_explore_probes_total",
	"ehsimd_explore_cache_hits_total",
	"ehsimd_explore_cache_misses_total",
	"ehsimd_explorations_done_total",
}

// expectedCounters gives, per node, the /metrics deltas the given
// number of rounds must produce: a pure function of the plan, so the
// tier mix is checked exactly, not sampled.
func (b *bench) expectedCounters(w *workload, rounds int) []map[string]float64 {
	a := make(map[string]float64, len(checkedCounters))
	for _, k := range checkedCounters {
		a[k] = 0
	}
	switch w {
	case wlCold:
		a["ehsimd_cache_misses_total"] = float64(rounds * len(b.corpus.scenarios))
		return []map[string]float64{a}
	case wlReplay:
		n := float64(rounds * len(b.corpus.single))
		p := maps.Clone(a)
		a["ehsimd_disk_hits_total"] = n    // the disk batch's leaders
		a["ehsimd_cache_misses_total"] = n // ... which missed memory
		a["ehsimd_cache_hits_total"] = n   // the memory batch
		p["ehsimd_peer_hits_total"] = n
		p["ehsimd_cache_misses_total"] = n
		return []map[string]float64{a, p}
	default:
		probes := 0
		for _, e := range b.corpus.explorations {
			probes += e.probes
		}
		a["ehsimd_explore_probes_total"] = float64(rounds * probes)
		a["ehsimd_explore_cache_misses_total"] = float64(rounds * probes)
		a["ehsimd_explorations_done_total"] = float64(rounds * len(b.corpus.explorations))
		return []map[string]float64{a}
	}
}

// traceOracle holds the reference traces for the single-run curated
// specs, computed by calling the engine directly with the daemon's
// trace settings: the full CSV (after its spec-hash line) and a pool of
// seeded zoom windows. For specs with a pinned golden trace the
// reference must equal it.
type traceOracle struct {
	full map[string][]byte         // parent name → CSV body after the spec-hash line
	zoom map[string][][]zoomWindow // parent name → zoom sequences
}

type zoomWindow struct {
	from, to float64
	want     []byte // window CSV after the spec-hash line
}

// daemonTraceInterval mirrors the daemon's trace sampling policy: the
// CLI's interval, stretched so a trace never exceeds 20000 samples.
func daemonTraceInterval(duration float64) float64 {
	const maxSamples = 20_000
	iv := result.TraceInterval
	if duration/iv > maxSamples-1 {
		iv = duration / (maxSamples - 1)
	}
	return iv
}

func (b *bench) buildOracle() error {
	o := &traceOracle{full: map[string][]byte{}, zoom: map[string][][]zoomWindow{}}
	rng := b.rng(7)
	for _, doc := range b.corpus.single {
		rep, err := result.RunSpec(doc.spec, result.Options{Trace: true, TraceInterval: daemonTraceInterval(float64(doc.spec.Duration))})
		if err != nil {
			return fmt.Errorf("oracle %s: %w", doc.name, err)
		}
		_, body, _ := bytes.Cut(rep.TraceCSV, []byte("\n"))
		if doc.pinnedTrace != nil && !bytes.Equal(body, doc.pinnedTrace) {
			return fmt.Errorf("oracle %s: engine trace differs from the pinned golden trace", doc.name)
		}
		o.full[doc.name] = body
		lo, hi, ok := rep.Trace.TimeRange()
		if !ok {
			return fmt.Errorf("oracle %s: empty trace", doc.name)
		}
		for range zoomSequences {
			var seq []zoomWindow
			from, to := lo, hi
			for range zoomDepth {
				var buf bytes.Buffer
				if err := rep.Trace.WriteWindowCSV(&buf, from, to, zoomPoints); err != nil {
					return err
				}
				seq = append(seq, zoomWindow{from: from, to: to, want: buf.Bytes()})
				width := (to - from) / 4
				center := from + width/2 + rng.Float64()*(to-from-width)
				from, to = center-width/2, center+width/2
			}
			o.zoom[doc.name] = append(o.zoom[doc.name], seq)
		}
	}
	b.oracle = o
	return nil
}

// fullOK checks a served full trace: the spec-hash line of the renamed
// spec, then the reference CSV.
func (o *traceOracle) fullOK(in *input, body []byte) bool {
	return headedBody(body, in.hash, o.full[in.doc.name])
}

// headedBody reports whether body is "# spec-hash: <hash>\n" + want.
func headedBody(body []byte, hash string, want []byte) bool {
	head, rest, ok := bytes.Cut(body, []byte("\n"))
	return ok && string(head) == "# spec-hash: "+hash && bytes.Equal(rest, want)
}
