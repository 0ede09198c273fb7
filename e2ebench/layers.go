package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"time"

	"repro/internal/cas"
	"repro/internal/explore"
	"repro/internal/registry"
	"repro/internal/result"
	"repro/internal/scenario"
	"repro/internal/service"
	"repro/internal/source"
	"repro/internal/trace"
)

// Repetitions of each direct-call measurement; every layer metric is
// the median over them.
const (
	engineReps = 3
	layerReps  = 5
	parseReps  = 50
	labDt      = 5e-6 // the lab model's step when a spec sets no dt
	maxSamples = 200_000
)

// metricSet collects named metrics.
type metricSet map[string]metric

func (m metricSet) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// layerPass drives the seeded inputs through each layer's public
// functions directly, in the order the service composes them (parse →
// hash → engine → trace CSV → encode → CAS put; CAS get → decode →
// window; peer GET; explore.Run over the probe path), recording a span
// around every call. It returns the per-layer metrics.
func (b *bench) layerPass(ctx context.Context, log *spanLog) (metricSet, error) {
	m := metricSet{}
	req := log.newReq()
	root := log.begin("layers", 0, req)
	defer root.end()

	ins := make([]*input, len(b.corpus.scenarios))
	for i, doc := range b.corpus.scenarios {
		in, err := rename(doc, fmt.Sprintf("%s.s%d.layer", doc.name, b.seed))
		if err != nil {
			return nil, err
		}
		ins[i] = in
	}

	parseUS, hashUS := b.scenarioLayer(ins, m, log, root.id, req)
	reports, err := b.engineLayer(ins, m, log, root.id, req)
	if err != nil {
		return nil, err
	}
	if err := b.sourceLayer(m, log, root.id, req); err != nil {
		return nil, err
	}
	blobs, err := b.codecLayers(reports, m, log, root.id, req)
	if err != nil {
		return nil, err
	}
	if err := b.casLayer(reports, blobs, m, log, root.id, req); err != nil {
		return nil, err
	}
	if err := b.serviceLayer(ctx, ins, parseUS+hashUS, m, log, root.id, req); err != nil {
		return nil, err
	}
	if err := b.exploreLayer(m, log, root.id, req); err != nil {
		return nil, err
	}
	return m, nil
}

// scenarioLayer times scenario.Parse and Spec.Hash per spec. It returns
// the summed per-spec medians over the single-run specs, the direct-call
// cost a 7-spec batch pays in this layer.
func (b *bench) scenarioLayer(ins []*input, m metricSet, log *spanLog, parent, req int64) (parseSum, hashSum float64) {
	var parse, hash []float64
	perSpecParse := make(map[*input][]float64)
	perSpecHash := make(map[*input][]float64)
	for range parseReps {
		for _, in := range ins {
			sp := log.begin("scenario.parse", parent, req)
			t0 := time.Now()
			spec, err := scenario.Parse(in.body)
			pd := time.Since(t0)
			sp.end()
			if !b.tally.check(err == nil, "layer parse %s: %v", in.name, err) {
				continue
			}
			sp = log.begin("scenario.hash", parent, req)
			t0 = time.Now()
			h, err := spec.Hash()
			hd := time.Since(t0)
			sp.end()
			b.tally.check(err == nil && h == in.hash, "layer hash %s: %v", in.name, err)
			parse = append(parse, float64(pd)/1e3)
			hash = append(hash, float64(hd)/1e3)
			perSpecParse[in] = append(perSpecParse[in], float64(pd)/1e3)
			perSpecHash[in] = append(perSpecHash[in], float64(hd)/1e3)
		}
	}
	m.set("scenario.parse_us", "us", median(parse))
	m.set("scenario.hash_us", "us", median(hash))
	for _, in := range ins {
		if !in.doc.sweep {
			parseSum += median(perSpecParse[in])
			hashSum += median(perSpecHash[in])
		}
	}
	return parseSum, hashSum
}

// engineLayer runs every spec through scenario.RunModel with the
// daemon's options and returns the single-run specs' reports.
func (b *bench) engineLayer(ins []*input, m metricSet, log *spanLog, parent, req int64) ([]*result.Report, error) {
	var reports []*result.Report
	for _, in := range ins {
		spec, err := scenario.Parse(in.body)
		if err != nil {
			return nil, err
		}
		opts := scenario.RunOptions{Trace: !spec.HasSweep(), TraceInterval: daemonTraceInterval(float64(spec.Duration))}
		var runs []float64
		var mr *scenario.ModelReport
		for range engineReps {
			sp := log.begin("engine.run", parent, req)
			t0 := time.Now()
			mr, err = scenario.RunModel(spec, opts)
			d := time.Since(t0)
			sp.end()
			if err != nil {
				return nil, fmt.Errorf("engine %s: %w", in.name, err)
			}
			b.tally.check(in.textOK(mr.Text), "engine %s: report differs from golden", in.name)
			runs = append(runs, ms(d))
		}
		run := median(runs)
		m.set("engine."+in.doc.name+".run_ms", "ms", run)
		if spec.ModelName() == "lab" {
			steps := 0
			for _, c := range mr.Cases {
				steps += c.Lab.Steps
			}
			m.set("engine."+in.doc.name+".steps_per_s", "1/s", float64(steps)/(run/1e3))
		}
		if opts.Trace {
			// The report the service caches, for the codec layers.
			rep, err := result.RunSpec(spec, result.Options{Trace: true, TraceInterval: opts.TraceInterval})
			if err != nil {
				return nil, fmt.Errorf("engine %s: %w", in.name, err)
			}
			reports = append(reports, rep)
		}
	}
	return reports, nil
}

// sourceLayer times source.Build plus the sampler over the Dt grid of
// the first curated spec using each supply.
func (b *bench) sourceLayer(m metricSet, log *spanLog, parent, req int64) error {
	for _, supply := range []string{"square", "rectified-sine", "wind", "pv"} {
		var spec *scenario.Spec
		for _, doc := range b.corpus.scenarios {
			if doc.spec.Source.Name == supply {
				spec = doc.spec
				break
			}
		}
		if spec == nil {
			return fmt.Errorf("no curated spec uses supply %q", supply)
		}
		dt := float64(spec.Dt)
		if dt <= 0 {
			dt = labDt
		}
		n := min(int(float64(spec.Duration)/dt), maxSamples)
		params := registry.Params{}
		for k, v := range spec.Source.Params {
			params[k] = float64(v)
		}
		var per []float64
		for range layerReps {
			sp := log.begin("source.sample", parent, req)
			t0 := time.Now()
			built, err := source.Build(supply, params)
			if err != nil {
				sp.end()
				return fmt.Errorf("source %s: %w", supply, err)
			}
			var fn func(float64) float64
			if built.V != nil {
				fn = source.VoltageFn(built.V)
			} else {
				fn = source.PowerFn(built.P)
			}
			acc := 0.0
			for i := range n {
				acc += fn(float64(i) * dt)
			}
			d := time.Since(t0)
			sp.end()
			// Checking the sum keeps the samples live and the supply sane.
			b.tally.check(!math.IsNaN(acc) && !math.IsInf(acc, 0), "source %s sampled a non-finite value", supply)
			per = append(per, float64(d)/float64(n))
		}
		m.set("source."+supply+".sample_ns", "ns", median(per))
	}
	return nil
}

// codecLayers times the trace and result layers over the single-run
// reports and returns each report's encoded blob.
func (b *bench) codecLayers(reports []*result.Report, m metricSet, log *spanLog, parent, req int64) ([][]byte, error) {
	var csv, window, tenc, tdec, renc, rdec []float64
	blobs := make([][]byte, len(reports))
	for range layerReps {
		var sums [6]time.Duration
		windows := 0
		for i, rep := range reports {
			sums[0] += b.timed(log, "trace.csv", parent, req, func() error {
				return result.WriteTrace(io.Discard, rep.Trace, rep.SpecHash)
			})
			lo, hi, _ := rep.Trace.TimeRange()
			for z := range zoomDepth {
				width := (hi - lo) / float64(int(1)<<(2*z))
				sums[1] += b.timed(log, "trace.window", parent, req, func() error {
					return rep.Trace.WriteWindowCSV(io.Discard, lo, lo+width, zoomPoints)
				})
				windows++
			}
			var tblob []byte
			sums[2] += b.timed(log, "trace.encode", parent, req, func() error {
				tblob = trace.EncodeRecorder(rep.Trace)
				return nil
			})
			sums[3] += b.timed(log, "trace.decode", parent, req, func() error {
				_, err := trace.DecodeRecorder(tblob)
				return err
			})
			var blob []byte
			sums[4] += b.timed(log, "result.encode", parent, req, func() (err error) {
				blob, err = result.EncodeReport(rep)
				return err
			})
			var back *result.Report
			sums[5] += b.timed(log, "result.decode", parent, req, func() (err error) {
				back, err = result.DecodeReport(blob)
				return err
			})
			b.tally.check(back != nil && back.Text == rep.Text && bytes.Equal(back.TraceCSV, rep.TraceCSV),
				"result codec round trip of %s", rep.SpecHash)
			blobs[i] = blob
		}
		csv = append(csv, ms(sums[0]))
		window = append(window, ms(sums[1])/float64(windows))
		tenc = append(tenc, ms(sums[2]))
		tdec = append(tdec, ms(sums[3]))
		renc = append(renc, ms(sums[4]))
		rdec = append(rdec, ms(sums[5]))
	}
	m.set("trace.csv_ms", "ms", median(csv))
	m.set("trace.window_ms", "ms", median(window))
	m.set("trace.encode_ms", "ms", median(tenc))
	m.set("trace.decode_ms", "ms", median(tdec))
	m.set("result.encode_ms", "ms", median(renc))
	m.set("result.decode_ms", "ms", median(rdec))
	kb := 0.0
	for _, bl := range blobs {
		kb += float64(len(bl)) / 1024
	}
	m.set("result.blob_kb", "KiB", kb)
	return blobs, nil
}

// timed runs fn inside a span and returns its duration; an error counts
// as a failed operation.
func (b *bench) timed(log *spanLog, name string, parent, req int64, fn func() error) time.Duration {
	sp := log.begin(name, parent, req)
	t0 := time.Now()
	err := fn()
	d := time.Since(t0)
	sp.end()
	b.tally.check(err == nil, "%s: %v", name, err)
	return d
}

// casLayer times Put (write, fsync, rename) and Get (read, verify) of
// the single-run blobs on a fresh store.
func (b *bench) casLayer(reports []*result.Report, blobs [][]byte, m metricSet, log *spanLog, parent, req int64) error {
	dir, err := os.MkdirTemp(b.tmp, "layer-cas-")
	if err != nil {
		return err
	}
	st, err := cas.Open(dir, cas.Options{})
	if err != nil {
		return err
	}
	var put, get []float64
	for r := range layerReps {
		var p, g time.Duration
		for i, rep := range reports {
			key := fmt.Sprintf("%s|rep=%d", service.CacheKey(rep.SpecHash), r)
			p += b.timed(log, "cas.put", parent, req, func() error { return st.Put(key, blobs[i]) })
			var got []byte
			g += b.timed(log, "cas.get", parent, req, func() error {
				var ok bool
				if got, ok = st.Get(key); !ok {
					return fmt.Errorf("blob %s missing", key)
				}
				return nil
			})
			b.tally.check(bytes.Equal(got, blobs[i]), "CAS round trip of %s", key)
		}
		put = append(put, ms(p))
		get = append(get, ms(g))
		if r == 0 {
			m.set("cas.bytes_written", "B", float64(st.Stats().Bytes))
		}
	}
	m.set("cas.put_ms", "ms", median(put))
	m.set("cas.get_ms", "ms", median(get))
	return nil
}

// serviceLayer measures the daemon from outside on one node: memory-hit
// batches of the single-run specs (whose time beyond the scenario
// layer's direct cost is the HTTP and service self time) and, after a
// restart empties the memory tier, the owner's GET /v1/cache/{hash}
// peer endpoint served from disk.
func (b *bench) serviceLayer(ctx context.Context, ins []*input, directUS float64, m metricSet, log *spanLog, parent, req int64) error {
	dir, err := os.MkdirTemp(b.tmp, "layer-node-")
	if err != nil {
		return err
	}
	n, err := startNode(dir, service.Config{JobWorkers: 2, JobHistory: 64})
	if err != nil {
		return err
	}
	defer n.close()
	var single []*input
	for _, in := range ins {
		if !in.doc.sweep {
			single = append(single, in)
		}
	}
	b.checkBatch(ctx, n.url, tierCompute, single, nil, 0, 0)
	var batches []float64
	for range 4 * layerReps {
		t0 := time.Now()
		b.checkBatch(ctx, n.url, tierMemory, single, log, parent, req)
		batches = append(batches, ms(time.Since(t0)))
	}
	m.set("service.http_self_ms", "ms", median(batches)-directUS/1e3)

	if err := n.restart(); err != nil {
		return err
	}
	var gets []float64
	for range layerReps {
		var sum time.Duration
		for _, in := range single {
			var body []byte
			sum += b.timed(log, "http.cache_get", parent, req, func() (err error) {
				body, err = b.client.get(ctx, n.url+"/v1/cache/"+in.hash)
				return err
			})
			rep, err := result.DecodeReport(body)
			b.tally.check(err == nil && in.textOK(rep.Text), "peer GET of %s: %v", in.name, err)
		}
		gets = append(gets, ms(sum))
	}
	m.set("peer.get_ms", "ms", median(gets))
	return nil
}

// exploreLayer runs each curated exploration (renamed) through
// explore.Run with an evaluator composed the way the service's probe
// path is: engine with trace, result encode, CAS put.
func (b *bench) exploreLayer(m metricSet, log *spanLog, parent, req int64) error {
	dir, err := os.MkdirTemp(b.tmp, "layer-explore-")
	if err != nil {
		return err
	}
	st, err := cas.Open(dir, cas.Options{})
	if err != nil {
		return err
	}
	var bytesWritten, probes int
	for _, e := range b.corpus.explorations {
		body, name, err := renameExploration(e, fmt.Sprintf(".s%d.layer", b.seed))
		if err != nil {
			return err
		}
		es, err := explore.Parse(body)
		if err != nil {
			return fmt.Errorf("exploration %s: %w", name, err)
		}
		run := log.begin("explore.run", parent, req)
		var mu sync.Mutex
		var probeMS []float64
		var kids []span
		t0 := time.Now()
		eval := func(sp *scenario.Spec) (explore.Outcome, error) {
			ps := log.begin("explore.probe", run.id, req)
			defer ps.end()
			p0 := time.Now()
			hash, err := sp.Hash()
			if err != nil {
				return explore.Outcome{}, err
			}
			var rep *result.Report
			if err := timedErr(log, "engine.run", ps.id, req, func() (err error) {
				rep, err = result.RunSpec(sp, result.Options{Trace: true, TraceInterval: daemonTraceInterval(float64(sp.Duration))})
				return err
			}); err != nil {
				return explore.Outcome{}, err
			}
			var data []byte
			if err := timedErr(log, "result.encode", ps.id, req, func() (err error) {
				data, err = result.EncodeReport(rep)
				return err
			}); err != nil {
				return explore.Outcome{}, err
			}
			if err := timedErr(log, "cas.put", ps.id, req, func() error { return st.Put(service.CacheKey(hash), data) }); err != nil {
				return explore.Outcome{}, err
			}
			p1 := time.Now()
			mu.Lock()
			probeMS = append(probeMS, ms(p1.Sub(p0)))
			kids = append(kids, span{Start: int64(p0.Sub(t0)), End: int64(p1.Sub(t0))})
			bytesWritten += len(data)
			mu.Unlock()
			return explore.Outcome{Metrics: rep.Cases[0].Metrics, SimSeconds: rep.SimSeconds}, nil
		}
		rep, err := explore.Run(es, explore.Options{Evaluate: eval})
		total := time.Since(t0)
		run.end()
		if err != nil {
			return fmt.Errorf("exploration %s: %w", name, err)
		}
		b.tally.check(explorationTextOK(e, name, rep.Text), "layer exploration %s: report differs from golden", name)
		b.tally.check(rep.Evaluations == e.probes, "layer exploration %s: %d evaluations, want %d", name, rep.Evaluations, e.probes)
		self := total - time.Duration(covered(span{Start: 0, End: int64(total)}, kids))
		m.set("explore."+e.name+".probes", "count", float64(rep.Evaluations))
		m.set("explore."+e.name+".probe_ms", "ms", median(probeMS))
		m.set("explore."+e.name+".self_ms", "ms", ms(self))
		probes += rep.Evaluations
	}
	m.set("cas.kb_per_probe", "KiB", float64(bytesWritten)/1024/float64(probes))
	return nil
}

// timedErr runs fn inside a span and returns its error.
func timedErr(log *spanLog, name string, parent, req int64, fn func() error) error {
	sp := log.begin(name, parent, req)
	defer sp.end()
	return fn()
}
