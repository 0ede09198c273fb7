package result

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"strings"
	"testing"

	"repro/internal/scenario"
)

func codecSpec(t *testing.T) *scenario.Spec {
	t.Helper()
	sp, err := scenario.Parse([]byte(`{
		"name": "codec-roundtrip",
		"workload": "fib24",
		"storage": {"c": "10u"},
		"source": {"name": "dc"},
		"duration": 0.002
	}`))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestReportCodecRoundTripsServedArtifacts(t *testing.T) {
	rep, err := RunSpec(codecSpec(t), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeReport(data)
	if err != nil {
		t.Fatal(err)
	}
	// The service contract is byte identity of the served artifacts.
	if got.Text != rep.Text {
		t.Errorf("Text diverged across the codec:\n%s\n---\n%s", got.Text, rep.Text)
	}
	if !bytes.Equal(got.TraceCSV, rep.TraceCSV) {
		t.Error("TraceCSV diverged across the codec")
	}
	// The codec persists the columnar recorder itself, so cache-served reports
	// answer windowed trace queries without a recompute — and the
	// decoded recorder must window identically to the original.
	if got.Trace == nil {
		t.Fatal("decoded report lost its columnar trace")
	}
	var a, b strings.Builder
	if err := rep.Trace.WriteWindowCSV(&a, 0, 1, 16); err != nil {
		t.Fatal(err)
	}
	if err := got.Trace.WriteWindowCSV(&b, 0, 1, 16); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("windowed rendering diverged across the codec")
	}
	if got.SpecHash != rep.SpecHash || got.Sweep != rep.Sweep || got.SimSeconds != rep.SimSeconds {
		t.Errorf("metadata diverged: %+v vs %+v", got, rep)
	}
	if len(got.Cases) != len(rep.Cases) || got.Cases[0].Name != rep.Cases[0].Name {
		t.Errorf("case names diverged: %v", got.Cases)
	}
	// v2 persists the structured metrics, so a cache-served report can
	// still answer exploration objective queries.
	if len(got.Cases[0].Metrics) == 0 {
		t.Fatal("decoded report lost its case metrics")
	}
	for k, v := range rep.Cases[0].Metrics {
		if got.Cases[0].Metrics[k] != v {
			t.Errorf("metric %q diverged: %g vs %g", k, got.Cases[0].Metrics[k], v)
		}
	}
}

// frameReport assembles a report blob from its parts — the v4 layout,
// under any version number — so tests can build stale or malformed
// blobs the encoder never would.
func frameReport(version uint16, header, traceBlob []byte) []byte {
	b := append([]byte(codecMagic), 0, 0, 0, 0, 0, 0)
	binary.LittleEndian.PutUint16(b[len(codecMagic):], version)
	binary.LittleEndian.PutUint32(b[len(codecMagic)+2:], uint32(len(header)))
	return append(append(b, header...), traceBlob...)
}

// splitReport undoes frameReport on an encoded blob.
func splitReport(t *testing.T, data []byte) (header, traceBlob []byte) {
	t.Helper()
	if len(data) < frameSize || string(data[:len(codecMagic)]) != codecMagic {
		t.Fatalf("blob lacks the %q frame", codecMagic)
	}
	n := binary.LittleEndian.Uint32(data[len(codecMagic)+2:])
	return data[frameSize : frameSize+int(n)], data[frameSize+int(n):]
}

func TestDecodeRejectsForeignEngineAndCodec(t *testing.T) {
	rep, err := RunSpec(codecSpec(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	header, traceBlob := splitReport(t, data)
	stale := strings.Replace(string(header), `"engine":"`+EngineVersion+`"`, `"engine":"0-ancient"`, 1)
	if _, err := DecodeReport(frameReport(codecVersion, []byte(stale), traceBlob)); err == nil {
		t.Error("report from a foreign engine version decoded cleanly")
	}
	if _, err := DecodeReport(frameReport(9, header, traceBlob)); err == nil {
		t.Error("unknown codec version decoded cleanly")
	}
	// A v1 blob (pre-metrics) must decode as a miss, not half-read.
	if _, err := DecodeReport(frameReport(1, header, traceBlob)); err == nil {
		t.Error("stale codec v1 blob decoded cleanly")
	}
	// So must a v3 blob: JSON with the trace inside it, no binary frame.
	v3 := fmt.Sprintf(`{"codec":3,"engine":%q,"spec_hash":%q,"text":%q,"sim_seconds":1}`, EngineVersion, rep.SpecHash, rep.Text)
	if _, err := DecodeReport([]byte(v3)); err == nil {
		t.Error("stale codec v3 blob decoded cleanly")
	}
	if _, err := DecodeReport(frameReport(codecVersion, []byte(`{}`), nil)); err == nil {
		t.Error("empty report decoded cleanly")
	}
	if _, err := DecodeReport([]byte("not json")); err == nil {
		t.Error("garbage decoded cleanly")
	}
}

func TestDecodeRejectsMalformedFrames(t *testing.T) {
	rep, err := RunSpec(codecSpec(t), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	data, err := EncodeReport(rep)
	if err != nil {
		t.Fatal(err)
	}
	header, traceBlob := splitReport(t, data)
	if len(traceBlob) == 0 {
		t.Fatal("traced report encoded without a trace blob")
	}
	long := frameReport(codecVersion, header, traceBlob)
	binary.LittleEndian.PutUint32(long[len(codecMagic)+2:], uint32(len(long)))
	for name, blob := range map[string][]byte{
		"empty":            nil,
		"frame only":       data[:frameSize],
		"header overrun":   long,
		"truncated header": data[:frameSize+len(header)/2],
		"truncated trace":  data[:len(data)-3],
		"trailing byte":    append(append([]byte{}, data...), 0),
		"trace not a blob": frameReport(codecVersion, header, []byte("csv,not,a,recorder")),
	} {
		if _, err := DecodeReport(blob); err == nil {
			t.Errorf("%s: decoded cleanly", name)
		}
		if err := CheckReport(blob); err == nil {
			t.Errorf("%s: passed CheckReport", name)
		}
	}
	if err := CheckReport(data); err != nil {
		t.Errorf("CheckReport rejected a fresh blob: %v", err)
	}
}
