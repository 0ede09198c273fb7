package result

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"

	"repro/internal/trace"
)

// Report blob layout (codec v4):
//
//	"ehrp" | u16 codecVersion | u32 len(header) | header JSON | trace blob
//
// The header is wireReport as JSON; the trace blob is the raw
// trace.EncodeRecorder encoding, absent when the run captured no trace.
// Integers are little-endian.
//
// codecVersion frames the serialised report format. Bump it when the
// layout changes shape; decoders reject other versions so a stale blob
// can never be half-read into the wrong fields. v2 added per-case
// structured metrics, which the design-space explorer reads off cached
// reports; v3 replaced the rendered trace CSV with the columnar trace
// blob, so disk- and peer-served reports answer windowed trace queries
// without a recompute; v4 moved the trace blob out of the JSON (where
// it was base64 text) into a binary frame. Older blobs are JSON, fail
// the magic check and decode as misses.
const (
	codecMagic   = "ehrp"
	codecVersion = 4
	frameSize    = len(codecMagic) + 2 + 4
)

// wireReport is the JSON header of a persisted/transferred Report — the
// disk CAS blob and the peer cache-transfer body. It carries the text
// the service contract is about (Text served verbatim, byte for byte)
// plus the metadata the job and exploration layers need: engine
// version, hash, sweep flag, and per-case name + structured metrics.
// Raw lab.Result fields stay unpersisted — every number worth caching is
// in the metrics map by the model contract.
type wireReport struct {
	Engine     string     `json:"engine"`
	SpecHash   string     `json:"spec_hash"`
	Sweep      bool       `json:"sweep,omitempty"`
	Text       string     `json:"text"`
	SimSeconds float64    `json:"sim_seconds"`
	Cases      []wireCase `json:"cases,omitempty"`
}

// wireCase is one persisted case: its display name and its structured
// metrics.
type wireCase struct {
	Name    string             `json:"name"`
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// EncodeReport serialises a report for the disk CAS and peer transfer.
func EncodeReport(rep *Report) ([]byte, error) {
	w := wireReport{
		Engine:     EngineVersion,
		SpecHash:   rep.SpecHash,
		Sweep:      rep.Sweep,
		Text:       rep.Text,
		SimSeconds: rep.SimSeconds,
	}
	for _, c := range rep.Cases {
		w.Cases = append(w.Cases, wireCase{Name: c.Name, Metrics: c.Metrics})
	}
	hdr, err := json.Marshal(w)
	if err != nil {
		return nil, fmt.Errorf("result: encoding report %s: %w", rep.SpecHash, err)
	}
	var tr []byte
	if rep.Trace != nil {
		tr = trace.EncodeRecorder(rep.Trace)
	}
	buf := make([]byte, 0, frameSize+len(hdr)+len(tr))
	buf = append(buf, codecMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, codecVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(hdr)))
	buf = append(buf, hdr...)
	return append(buf, tr...), nil
}

// CheckReport validates an EncodeReport payload without rendering its
// trace CSV: framing, codec version, engine version, header fields and
// the trace blob. It accepts exactly the blobs DecodeReport accepts, so
// a cache tier can vouch for a blob it only passes on.
func CheckReport(data []byte) error {
	_, err := parseReport(data)
	return err
}

// DecodeReport deserialises an EncodeReport payload. It rejects unknown
// codec versions and reports produced by a different engine version —
// both would otherwise let a stale blob impersonate a current result.
func DecodeReport(data []byte) (*Report, error) {
	rep, err := parseReport(data)
	if err != nil {
		return nil, err
	}
	if rep.Trace != nil {
		// Re-render the CSV the byte-identity contract serves: the
		// columnar codec round-trips the recorder losslessly, so the
		// rendering matches the original byte for byte.
		if rep.TraceCSV, err = renderTrace(rep.Trace, rep.SpecHash); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// parseReport is CheckReport's validation and DecodeReport's decode: the
// report with its recorder, TraceCSV not yet rendered.
func parseReport(data []byte) (*Report, error) {
	if len(data) < frameSize || string(data[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("result: not a codec v%d report blob", codecVersion)
	}
	if v := binary.LittleEndian.Uint16(data[len(codecMagic):]); v != codecVersion {
		return nil, fmt.Errorf("result: report codec %d, want %d", v, codecVersion)
	}
	n := binary.LittleEndian.Uint32(data[len(codecMagic)+2:])
	body := data[frameSize:]
	if uint64(n) > uint64(len(body)) {
		return nil, fmt.Errorf("result: report header claims %d bytes, %d left", n, len(body))
	}
	var w wireReport
	if err := json.Unmarshal(body[:n], &w); err != nil {
		return nil, fmt.Errorf("result: decoding report: %w", err)
	}
	if w.Engine != EngineVersion {
		return nil, fmt.Errorf("result: report from engine %q, current engine is %q", w.Engine, EngineVersion)
	}
	if w.SpecHash == "" || w.Text == "" {
		return nil, fmt.Errorf("result: decoded report missing spec hash or text")
	}
	rep := &Report{
		SpecHash:   w.SpecHash,
		Sweep:      w.Sweep,
		Text:       w.Text,
		SimSeconds: w.SimSeconds,
		Cases:      make([]CaseResult, len(w.Cases)),
	}
	for i, c := range w.Cases {
		rep.Cases[i] = CaseResult{Name: c.Name, Metrics: c.Metrics}
	}
	if tr := body[n:]; len(tr) > 0 {
		rec, err := trace.DecodeRecorder(tr)
		if err != nil {
			return nil, fmt.Errorf("result: decoding report trace: %w", err)
		}
		rep.Trace = rec
	}
	return rep, nil
}

// renderTrace renders a recorder the way WriteTrace serves it.
func renderTrace(rec *trace.Recorder, specHash string) ([]byte, error) {
	var tb bytes.Buffer
	if err := WriteTrace(&tb, rec, specHash); err != nil {
		return nil, err
	}
	return tb.Bytes(), nil
}
