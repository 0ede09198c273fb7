package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/scenario"
)

// scenarioDoc is one curated scenario under examples/scenarios with its
// golden report. Renamed copies of it are the benchmark's inputs: the
// name folds into the spec hash, so a rename is a never-seen cache key
// whose simulated work is identical to the curated spec's.
type scenarioDoc struct {
	name  string
	raw   map[string]json.RawMessage
	spec  *scenario.Spec // the parsed curated spec
	sweep bool

	// goldenTail is testdata/golden/<name>.txt minus its leading
	// "scenario <name>": a served report for a renamed copy must equal
	// "scenario <newname>" + goldenTail byte for byte.
	goldenTail string

	// pinnedTrace is testdata/golden/<name>.trace.csv after its
	// "# spec-hash:" line, for the specs that pin one (nil otherwise).
	pinnedTrace []byte
}

// explorationDoc is one curated exploration under examples/explorations.
type explorationDoc struct {
	name       string
	raw        map[string]json.RawMessage
	base       map[string]json.RawMessage
	baseName   string
	goldenTail string // exploration-<name>.txt minus "exploration <name>"
	probes     int    // evaluations one cold run performs
}

// curatedProbes is the number of evaluations each curated exploration
// performs, as its golden report states (eq4: 8 grid cases, eq5: 20
// bisection evaluations, fig5: 24 grid cases). A cold run through the
// daemon resolves every one of them as a cache miss.
var curatedProbes = map[string]int{
	"eq4-capacitor-topk": 8,
	"eq5-crossover":      20,
	"fig5-pareto":        24,
}

// corpus is the curated input set and its oracle.
type corpus struct {
	scenarios    []*scenarioDoc // sorted by name
	single       []*scenarioDoc // the sweep-free subset, sorted by name
	explorations []*explorationDoc
}

// loadCorpus reads the curated scenarios, explorations and goldens from
// the repository rooted at root.
func loadCorpus(root string) (*corpus, error) {
	c := &corpus{}
	paths, err := filepath.Glob(filepath.Join(root, "examples", "scenarios", "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no curated scenarios under %s", filepath.Join(root, "examples", "scenarios"))
	}
	sort.Strings(paths)
	for _, p := range paths {
		d, err := loadScenario(root, p)
		if err != nil {
			return nil, err
		}
		c.scenarios = append(c.scenarios, d)
		if !d.sweep {
			c.single = append(c.single, d)
		}
	}

	paths, err = filepath.Glob(filepath.Join(root, "examples", "explorations", "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	for _, p := range paths {
		d, err := loadExploration(root, p)
		if err != nil {
			return nil, err
		}
		c.explorations = append(c.explorations, d)
	}
	if len(c.explorations) != len(curatedProbes) {
		return nil, fmt.Errorf("found %d curated explorations, want the %d with known probe counts", len(c.explorations), len(curatedProbes))
	}
	return c, nil
}

func loadScenario(root, path string) (*scenarioDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sp, err := scenario.Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	d := &scenarioDoc{name: sp.Name, spec: sp, sweep: sp.HasSweep()}
	if err := json.Unmarshal(data, &d.raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	golden := filepath.Join(root, "testdata", "golden", d.name+".txt")
	if d.goldenTail, err = goldenTail(golden, "scenario "+d.name); err != nil {
		return nil, err
	}
	pinned, err := os.ReadFile(filepath.Join(root, "testdata", "golden", d.name+".trace.csv"))
	switch {
	case err == nil:
		_, body, ok := bytes.Cut(pinned, []byte("\n"))
		if !ok || !bytes.HasPrefix(pinned, []byte("# spec-hash: ")) {
			return nil, fmt.Errorf("pinned trace for %s has no spec-hash line", d.name)
		}
		d.pinnedTrace = body
	case !os.IsNotExist(err):
		return nil, err
	}
	return d, nil
}

func loadExploration(root, path string) (*explorationDoc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	d := &explorationDoc{}
	if err := json.Unmarshal(data, &d.raw); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := json.Unmarshal(d.raw["name"], &d.name); err != nil {
		return nil, fmt.Errorf("%s: name: %w", path, err)
	}
	if err := json.Unmarshal(d.raw["base"], &d.base); err != nil {
		return nil, fmt.Errorf("%s: base: %w", path, err)
	}
	if err := json.Unmarshal(d.base["name"], &d.baseName); err != nil {
		return nil, fmt.Errorf("%s: base name: %w", path, err)
	}
	var ok bool
	if d.probes, ok = curatedProbes[d.name]; !ok {
		return nil, fmt.Errorf("%s: exploration %q has no known probe count (known: eq4-capacitor-topk, eq5-crossover, fig5-pareto)", path, d.name)
	}
	golden := filepath.Join(root, "testdata", "golden", "exploration-"+d.name+".txt")
	if d.goldenTail, err = goldenTail(golden, "exploration "+d.name); err != nil {
		return nil, err
	}
	return d, nil
}

// goldenTail reads a golden report and strips its title prefix.
func goldenTail(path, prefix string) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(string(data), prefix+":") {
		return "", fmt.Errorf("%s does not start with %q", path, prefix+":")
	}
	return string(data[len(prefix):]), nil
}

// withName re-encodes a JSON object with its "name" replaced.
func withName(raw map[string]json.RawMessage, name string) ([]byte, error) {
	n, err := json.Marshal(name)
	if err != nil {
		return nil, err
	}
	out := make(map[string]json.RawMessage, len(raw))
	for k, v := range raw {
		out[k] = v
	}
	out["name"] = n
	return json.Marshal(out)
}

// input is one renamed copy of a curated scenario: the spec body the
// daemon receives and the content address it must report.
type input struct {
	doc  *scenarioDoc
	name string
	body []byte
	hash string
}

// rename builds the renamed copy of d called name.
func rename(d *scenarioDoc, name string) (*input, error) {
	body, err := withName(d.raw, name)
	if err != nil {
		return nil, err
	}
	sp, err := scenario.Parse(body)
	if err != nil {
		return nil, fmt.Errorf("renamed %s: %w", d.name, err)
	}
	hash, err := sp.Hash()
	if err != nil {
		return nil, err
	}
	return &input{doc: d, name: name, body: body, hash: hash}, nil
}

// textOK reports whether a served report for in is its parent's golden
// with only the title's name changed.
func (in *input) textOK(served string) bool {
	prefix := "scenario " + in.name
	return strings.HasPrefix(served, prefix) && served[len(prefix):] == in.doc.goldenTail
}

// renameExploration builds the body of a renamed exploration whose base
// scenario is renamed too, so every probe it derives is a new cache key.
func renameExploration(d *explorationDoc, suffix string) ([]byte, string, error) {
	base, err := withName(d.base, d.baseName+suffix)
	if err != nil {
		return nil, "", err
	}
	raw := make(map[string]json.RawMessage, len(d.raw))
	for k, v := range d.raw {
		raw[k] = v
	}
	raw["base"] = base
	name := d.name + suffix
	body, err := withName(raw, name)
	return body, name, err
}

// explorationTextOK reports whether a served exploration report is the
// golden with only the title's name changed.
func explorationTextOK(d *explorationDoc, name, served string) bool {
	prefix := "exploration " + name
	return strings.HasPrefix(served, prefix) && served[len(prefix):] == d.goldenTail
}
