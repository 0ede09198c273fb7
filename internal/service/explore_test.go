package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cas"
	"repro/internal/explore"
	"repro/internal/result"
	"repro/internal/scenario"
)

// tinyExploration returns a fast 3-probe grid exploration; the name
// salt mints distinct exploration (and derived-case) identities.
func tinyExploration(name string) string {
	return fmt.Sprintf(`{
		"name": %q,
		"base": {
			"name": %q,
			"workload": "fib24",
			"storage": {"c": "10u"},
			"source": {"name": "dc"},
			"duration": 0.002
		},
		"strategy": {"kind": "grid", "axes": [{"param": "c", "values": ["4.7u", "10u", "22u"]}]},
		"aggregators": [{"kind": "topk", "k": 2, "metric": "completions", "goal": "max"}]
	}`, name, name)
}

// submitExploration POSTs an exploration spec and decodes the status.
func submitExploration(t *testing.T, ts *httptest.Server, spec string) (JobStatus, *http.Response) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/explorations", "application/json", strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatalf("decoding exploration submit response: %v", err)
		}
	}
	return st, resp
}

func TestExplorationJobServesCLIIdenticalResult(t *testing.T) {
	_, ts := testServer(t, Config{})
	spec := tinyExploration("svc-explore-identity")

	st, resp := submitExploration(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if st.Kind != KindExploration || st.Spec != "svc-explore-identity" {
		t.Fatalf("status = %+v, want an exploration job", st)
	}
	fin := await(t, ts, st.ID)
	if fin.State != JobDone {
		t.Fatalf("final state = %s (%s), want done", fin.State, fin.Error)
	}
	if fin.Done != fin.Total || fin.Total != 3 {
		t.Errorf("progress = %d/%d, want 3/3", fin.Done, fin.Total)
	}

	code, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result")
	if code != http.StatusOK {
		t.Fatalf("result: status %d", code)
	}
	es, err := explore.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := result.RunExploration(es, result.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if body != rep.Text {
		t.Errorf("daemon result differs from the CLI renderer:\n--- daemon\n%s\n--- cli\n%s", body, rep.Text)
	}
}

func TestRepeatedExplorationServesProbesFromCache(t *testing.T) {
	s, ts := testServer(t, Config{})
	spec := tinyExploration("svc-explore-cache")

	run := func() {
		st, resp := submitExploration(t, ts, spec)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit: status %d", resp.StatusCode)
		}
		if fin := await(t, ts, st.ID); fin.State != JobDone {
			t.Fatalf("final state = %s (%s), want done", fin.State, fin.Error)
		}
	}

	run()
	m := s.Metrics()
	if m.ExploreProbes != 3 || m.ExploreCacheMisses != 3 || m.ExploreCacheHits != 0 {
		t.Fatalf("cold run: probes/misses/hits = %d/%d/%d, want 3/3/0",
			m.ExploreProbes, m.ExploreCacheMisses, m.ExploreCacheHits)
	}

	run()
	m = s.Metrics()
	if m.ExploreProbes != 6 || m.ExploreCacheMisses != 3 || m.ExploreCacheHits != 3 {
		t.Errorf("warm run: probes/misses/hits = %d/%d/%d, want 6/3/3 (every probe a cache hit)",
			m.ExploreProbes, m.ExploreCacheMisses, m.ExploreCacheHits)
	}
	if m.ExplorationsDone != 2 {
		t.Errorf("explorations done = %d, want 2", m.ExplorationsDone)
	}
}

func TestExplorationProbesSurviveRestartViaCAS(t *testing.T) {
	dir := t.TempDir()
	store, err := cas.Open(dir, cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinyExploration("svc-explore-cas")

	s1, ts1 := testServer(t, Config{CAS: store})
	st, _ := submitExploration(t, ts1, spec)
	if fin := await(t, ts1, st.ID); fin.State != JobDone {
		t.Fatalf("first daemon: state %s (%s)", fin.State, fin.Error)
	}
	if m := s1.Metrics(); m.ExploreCacheMisses != 3 {
		t.Fatalf("first daemon computed %d probes, want 3", m.ExploreCacheMisses)
	}

	// A fresh server on the same store has an empty memory cache; every
	// probe should resolve from disk.
	s2, ts2 := testServer(t, Config{CAS: store})
	st2, _ := submitExploration(t, ts2, spec)
	if fin := await(t, ts2, st2.ID); fin.State != JobDone {
		t.Fatalf("second daemon: state %s (%s)", fin.State, fin.Error)
	}
	if m := s2.Metrics(); m.ExploreCacheHits != 3 || m.ExploreCacheMisses != 0 || m.DiskHits != 3 {
		t.Errorf("second daemon: hits/misses/disk = %d/%d/%d, want 3/0/3",
			m.ExploreCacheHits, m.ExploreCacheMisses, m.DiskHits)
	}
}

func TestExplorationCancel(t *testing.T) {
	t.Run("queued", func(t *testing.T) {
		// Not started: the job can never leave the queue, so the cancel
		// path exercised is the queued one, deterministically.
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		st, _ := submitExploration(t, ts, tinyExploration("svc-explore-cancel-q"))
		fin, ok := s.Cancel(st.ID)
		if !ok || fin.State != JobCanceled {
			t.Fatalf("cancel: %+v ok=%v, want canceled", fin, ok)
		}
	})
	t.Run("running", func(t *testing.T) {
		_, ts := testServer(t, Config{})
		// Probes this long would take minutes; the test passes only
		// because cancellation interrupts the probe's stepping loop.
		spec := `{
			"name": "svc-explore-cancel-r",
			"base": {
				"name": "svc-explore-cancel-r",
				"workload": "fib24",
				"storage": {"c": "10u"},
				"source": {"name": "dc"},
				"duration": 600
			},
			"strategy": {"kind": "grid", "axes": [{"param": "c", "values": ["4.7u", "10u"]}]},
			"aggregators": [{"kind": "topk", "k": 1, "metric": "completions", "goal": "max"}]
		}`
		st, _ := submitExploration(t, ts, spec)
		for deadline := time.Now().Add(10 * time.Second); ; {
			got, _ := pollJob(t, ts, st.ID)
			if got.State == JobRunning {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("exploration never started running: %+v", got)
			}
			time.Sleep(2 * time.Millisecond)
		}
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+st.ID, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if fin := await(t, ts, st.ID); fin.State != JobCanceled {
			t.Errorf("final state = %s, want canceled", fin.State)
		}
	})
}

func TestExplorationDrainCompletesAcceptedJob(t *testing.T) {
	s := New(Config{}).Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	st, resp := submitExploration(t, ts, tinyExploration("svc-explore-drain"))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	s.Drain()
	if got, _ := s.Job(st.ID); got.State != JobDone {
		t.Errorf("after drain: state %s (%s), want done", got.State, got.Error)
	}
	if _, err := s.SubmitExploration([]byte(tinyExploration("svc-explore-drain-2"))); err != ErrDraining {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
}

func TestExplorationInvalidSpecIs400(t *testing.T) {
	_, ts := testServer(t, Config{})
	bad := `{"name": "nope", "base": {"name": "nope", "workload": "fib24",
		"storage": {"c": "10u"}, "source": {"name": "dc"}, "duration": 0.002},
		"strategy": {"kind": "anneal"}}`
	_, resp := submitExploration(t, ts, bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestExplorationBackpressure429(t *testing.T) {
	// Not started with a depth-1 queue: the first exploration occupies
	// the only slot, the second must bounce with Retry-After.
	s := New(Config{QueueDepth: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	if _, resp := submitExploration(t, ts, tinyExploration("svc-explore-bp-1")); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	_, resp := submitExploration(t, ts, tinyExploration("svc-explore-bp-2"))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second submit: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After hint")
	}
}

func TestRegistryListsModelMetrics(t *testing.T) {
	_, ts := testServer(t, Config{})
	code, body, _ := getBody(t, ts.URL+"/v1/registry")
	if code != http.StatusOK {
		t.Fatalf("registry: status %d", code)
	}
	for _, frag := range []string{`"metrics":[`, `"energy_per_op"`, `"mean_fps"`, `"first_fire"`, `"worst_window"`} {
		if !strings.Contains(body, frag) {
			t.Errorf("registry body lacks %s", frag)
		}
	}
}

// probeSpecs runs an exploration in-process with an evaluator that
// records every derived spec, in evaluation order.
func probeSpecs(t *testing.T, spec string) []*scenario.Spec {
	t.Helper()
	es, err := explore.Parse([]byte(spec))
	if err != nil {
		t.Fatal(err)
	}
	var specs []*scenario.Spec
	_, err = explore.Run(es, explore.Options{
		Workers: 1,
		Evaluate: func(sp *scenario.Spec) (explore.Outcome, error) {
			specs = append(specs, sp)
			rep, err := result.RunSpec(sp, result.Options{Workers: 1})
			if err != nil {
				return explore.Outcome{}, err
			}
			return explore.Outcome{Metrics: rep.Cases[0].Metrics}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return specs
}

// awaitExploration submits an exploration and waits for it to finish.
func awaitExploration(t *testing.T, ts *httptest.Server, spec string) {
	t.Helper()
	st, resp := submitExploration(t, ts, spec)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	if fin := await(t, ts, st.ID); fin.State != JobDone {
		t.Fatalf("exploration: state %s (%s), want done", fin.State, fin.Error)
	}
}

// A probe's cache entry is the report text plus metrics: no trace, a
// few KB per blob.
func TestExplorationProbesAreUntraced(t *testing.T) {
	store, err := cas.Open(t.TempDir(), cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinyExploration("svc-explore-untraced")
	_, ts := testServer(t, Config{CAS: store})
	awaitExploration(t, ts, spec)

	specs := probeSpecs(t, spec)
	if store.Len() != len(specs) {
		t.Fatalf("CAS holds %d blobs, want one per probe (%d)", store.Len(), len(specs))
	}
	for _, sp := range specs {
		hash, err := sp.Hash()
		if err != nil {
			t.Fatal(err)
		}
		data, ok := store.Get(CacheKey(hash))
		if !ok {
			t.Fatalf("probe %s: no CAS blob", sp.Name)
		}
		rep, err := result.DecodeReport(data)
		if err != nil {
			t.Fatalf("probe %s: %v", sp.Name, err)
		}
		if rep.Trace != nil || rep.TraceCSV != nil {
			t.Errorf("probe %s: blob carries a trace", sp.Name)
		}
		if len(data) >= 8<<10 {
			t.Errorf("probe %s: blob is %d bytes, want under 8 KiB", sp.Name, len(data))
		}
	}
}

// checkDerivedTrace submits a probe's spec as a job against a server
// whose cache tiers hold the probe's untraced entry, and checks that
// the job serves the CLI's result and derives exactly the trace a
// traced compute serves, also to concurrent first requests.
func checkDerivedTrace(t *testing.T, ts *httptest.Server, sp *scenario.Spec, wantSource string) {
	t.Helper()
	canon, err := sp.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	st, _ := submit(t, ts, string(canon))
	fin := await(t, ts, st.ID)
	if fin.State != JobDone || fin.Source != wantSource {
		t.Fatalf("probe job: state=%s source=%q, want done/%s", fin.State, fin.Source, wantSource)
	}

	traced, err := result.RunSpec(sp, result.Options{
		Workers:       1,
		Trace:         true,
		TraceInterval: traceInterval(float64(sp.Duration)),
	})
	if err != nil {
		t.Fatal(err)
	}
	var full bytes.Buffer
	if err := result.WriteTrace(&full, traced.Trace, traced.SpecHash); err != nil {
		t.Fatal(err)
	}
	const from, to, points = 0.0005, 0.0015, 16
	window := bytes.NewBufferString("# spec-hash: " + traced.SpecHash + "\n")
	if err := traced.Trace.WriteWindowCSV(window, from, to, points); err != nil {
		t.Fatal(err)
	}

	if _, body, _ := getBody(t, ts.URL+"/v1/jobs/"+st.ID+"/result"); body != traced.Text {
		t.Errorf("result differs from the CLI renderer:\n--- daemon\n%s\n--- cli\n%s", body, traced.Text)
	}

	// Concurrent first requests: every one must get the derived trace.
	const n = 8
	bodies := make([]string, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/v1/jobs/" + st.ID + "/trace")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Error(err)
			}
			codes[i], bodies[i] = resp.StatusCode, string(b)
		}()
	}
	wg.Wait()
	for i := range n {
		if codes[i] != http.StatusOK || bodies[i] != full.String() {
			t.Fatalf("concurrent trace %d: status %d, body differs from a traced compute:\n%.300s", i, codes[i], bodies[i])
		}
	}

	code, body, _ := getBody(t, fmt.Sprintf("%s/v1/jobs/%s/trace?from=%g&to=%g&points=%d", ts.URL, st.ID, from, to, points))
	if code != http.StatusOK || body != window.String() {
		t.Errorf("windowed trace: status %d, body differs from a traced compute:\n%s\n--- want\n%s", code, body, window.String())
	}
}

// A single-run job that resolves to a probe-filled entry — from memory,
// or from disk on a second server over the same CAS — derives its trace
// on demand, byte-identical to a traced compute.
func TestTraceDerivedForProbeFilledEntry(t *testing.T) {
	store, err := cas.Open(t.TempDir(), cas.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := tinyExploration("svc-explore-derive")
	_, ts := testServer(t, Config{CAS: store})
	awaitExploration(t, ts, spec)
	specs := probeSpecs(t, spec)

	t.Run("memory", func(t *testing.T) { checkDerivedTrace(t, ts, specs[0], SourceCache) })
	t.Run("disk", func(t *testing.T) {
		_, ts2 := testServer(t, Config{CAS: store})
		checkDerivedTrace(t, ts2, specs[1], SourceDisk)
	})
}
