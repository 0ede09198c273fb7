package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/lint"
)

// These tests assert correctness, the exact tier mix and the exact
// counters — never timings — so they cannot flake under load.

// TestWorkloadsServeGoldenBytesFromPlannedTiers drives every workload
// for a fixed number of rounds on the tuning seed and on a held-out
// seed: every served body must match the golden corpus, every job must
// come from its planned tier, and every node's /metrics deltas must
// equal the plan exactly.
func TestWorkloadsServeGoldenBytesFromPlannedTiers(t *testing.T) {
	ctx := context.Background()
	for _, seed := range []uint64{1, 9001} {
		for _, w := range workloads {
			t.Run(fmt.Sprintf("%s/seed%d", w.name, seed), func(t *testing.T) {
				if testing.Short() && w == wlExplore {
					t.Skip("explorations take seconds per round")
				}
				b, err := newBench(options{workload: w, seed: seed, root: "..", out: t.TempDir()})
				if err != nil {
					t.Fatal(err)
				}
				defer b.close()
				d, err := b.deploy(ctx, w, "t")
				if err != nil {
					t.Fatal(err)
				}
				defer d.close()
				// Four replay rounds come back to each copy of the working
				// set once, after the other copy has evicted it.
				rounds := map[*workload]int{wlCold: 2, wlReplay: 2 * replayCopies, wlExplore: 1}[w]
				before, err := b.snapshot(ctx, d)
				if err != nil {
					t.Fatal(err)
				}
				ph := b.measure(ctx, d, 0, rounds, nil)
				after, err := b.snapshot(ctx, d)
				if err != nil {
					t.Fatal(err)
				}
				b.checkCounters(w, before, after, rounds)
				if b.tally.failed != 0 {
					t.Fatalf("%d of %d operations failed:\n%s", b.tally.failed, b.tally.attempted, strings.Join(b.tally.notes, "\n"))
				}
				want := map[*workload]int{wlCold: 8, wlReplay: 3 * 7, wlExplore: 8 + 20 + 24}[w] * rounds
				if len(ph.roundMS) != rounds || ph.ops != want {
					t.Errorf("%d rounds served %d ops; want %d rounds, %d ops", len(ph.roundMS), ph.ops, rounds, want)
				}
			})
		}
	}
}

func TestUnknownWorkloadListsValidNames(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-workload", "warm"}, &stdout, &stderr); code == 0 {
		t.Fatalf("exit code 0 for an unknown workload")
	}
	if stdout.Len() != 0 {
		t.Errorf("printed a result for an unknown workload: %s", stdout.String())
	}
	if want := `unknown workload "warm" (valid: cold, replay, explore)`; !strings.Contains(stderr.String(), want) {
		t.Errorf("stderr = %q, want it to contain %q", stderr.String(), want)
	}
}

// TestReportMatchesBenchmarkJSON checks that an untraced run reports
// exactly the end-to-end metrics BENCHMARK.json declares and a traced
// run exactly the per-layer ones, with the declared units.
func TestReportMatchesBenchmarkJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the traced layer pass")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type decl struct {
		Name, Unit string
	}
	var spec struct {
		EndToEnd []decl `json:"end_to_end"`
		PerLayer []decl `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		trace string
		want  []decl
	}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
		var stdout, stderr bytes.Buffer
		args := []string{"-workload", "replay", "-seed", "5", "-seconds", "1", "-trace", tc.trace, "-root", "..", "-out", t.TempDir()}
		if code := run(args, &stdout, &stderr); code != 0 {
			t.Fatalf("trace %s: exit %d\n%s", tc.trace, code, stderr.String())
		}
		lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
		var rep report
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
			t.Errorf("trace %s: correct=%v failed=%d attempted=%d\n%s", tc.trace, rep.Correct, rep.Failed, rep.Attempted, stderr.String())
		}
		var got, want []string
		for name, m := range rep.Metrics {
			got = append(got, name+" "+m.Unit)
		}
		for _, d := range tc.want {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(got)
		sort.Strings(want)
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("trace %s: reported metrics\n%s\nwant\n%s", tc.trace, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
	}
}

// TestBenchmarkIsLintClean holds the benchmark's own code to the
// repository's ehsimvet suite, as TestRepoIsClean does for the main
// module (which does not include this one).
func TestBenchmarkIsLintClean(t *testing.T) {
	pkgs, err := lint.Load(".", "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loaded no packages")
	}
	for _, pkg := range pkgs {
		for _, d := range lint.Run(pkg, lint.All()) {
			t.Errorf("%s", d)
		}
	}
}
