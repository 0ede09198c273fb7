package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// client speaks ehsimd's public HTTP API, as a remote user would.
type client struct {
	hc *http.Client
}

func newClient() *client {
	return &client{hc: &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: 8,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// batchLine is one NDJSON line of a POST /v1/batches response.
type batchLine struct {
	Index  int    `json:"index"`
	ID     string `json:"id"`
	Hash   string `json:"hash"`
	State  string `json:"state"`
	Source string `json:"source"`
	Error  string `json:"error"`
	Result string `json:"result"`
}

// batch posts specs as one /v1/batches request and returns its lines
// indexed by spec position.
func (c *client) batch(ctx context.Context, base string, specs [][]byte) ([]batchLine, error) {
	var body bytes.Buffer
	body.WriteString(`{"specs":[`)
	for i, s := range specs {
		if i > 0 {
			body.WriteByte(',')
		}
		body.Write(s)
	}
	body.WriteString(`]}`)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/batches", &body)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("POST /v1/batches: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("POST /v1/batches: %s: %s", resp.Status, msg)
	}
	lines := make([]batchLine, len(specs))
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var l batchLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("batch line: %w", err)
		}
		if l.Index < 0 || l.Index >= len(specs) || lines[l.Index].State != "" {
			return nil, fmt.Errorf("batch line has bad or repeated index %d", l.Index)
		}
		lines[l.Index] = l
		seen++
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("reading batch stream: %w", err)
	}
	if seen != len(specs) {
		return nil, fmt.Errorf("batch stream ended after %d of %d lines", seen, len(specs))
	}
	return lines, nil
}

// get fetches a URL and returns its body, failing on a non-200 status.
func (c *client) get(ctx context.Context, url string) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("GET %s: %w", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", url, resp.Status, body)
	}
	return body, nil
}

// jobStatus is the subset of a job status document the benchmark reads.
type jobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// explore submits an exploration, polls its job every poll interval
// until it finishes, and returns the served /result body.
func (c *client) explore(ctx context.Context, base string, spec []byte, poll time.Duration) (string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/explorations", bytes.NewReader(spec))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return "", fmt.Errorf("POST /v1/explorations: %w", err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return "", fmt.Errorf("POST /v1/explorations: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return "", fmt.Errorf("POST /v1/explorations: %s: %s", resp.Status, raw)
	}
	var st jobStatus
	if err := json.Unmarshal(raw, &st); err != nil {
		return "", fmt.Errorf("exploration status: %w", err)
	}
	for st.State == "queued" || st.State == "running" {
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(poll):
		}
		raw, err := c.get(ctx, base+"/v1/jobs/"+st.ID)
		if err != nil {
			return "", err
		}
		if err := json.Unmarshal(raw, &st); err != nil {
			return "", fmt.Errorf("job status: %w", err)
		}
	}
	if st.State != "done" {
		return "", fmt.Errorf("exploration job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	body, err := c.get(ctx, base+"/v1/jobs/"+st.ID+"/result")
	return string(body), err
}

// counters scrapes the daemon's /metrics exposition into name → value.
func (c *client) counters(ctx context.Context, base string) (map[string]float64, error) {
	body, err := c.get(ctx, base+"/metrics")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("metric %s: %w", name, err)
		}
		out[name] = v
	}
	return out, nil
}
