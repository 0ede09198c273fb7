package servicetest

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// A fault armed after a client's keep-alive connection is open must
// still apply to that client's next request: the proxy severs the live
// relay instead of letting the request ride the clean connection.
func TestProxyFaultReachesKeepAliveClient(t *testing.T) {
	body := strings.Repeat("x", 64<<10)
	backend := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, body)
	}))
	defer backend.Close()

	cases := []struct {
		name string
		arm  func(p *Proxy)
		// faulted reports whether the second request saw the fault.
		faulted func(n int, took time.Duration, err error) bool
	}{
		{
			name:    "cut",
			arm:     func(p *Proxy) { p.CutResponseAfter(200) },
			faulted: func(n int, _ time.Duration, err error) bool { return err != nil || n < len(body) },
		},
		{
			name:    "refuse",
			arm:     func(p *Proxy) { p.Refuse(true) },
			faulted: func(_ int, _ time.Duration, err error) bool { return err != nil },
		},
		{
			name:    "latency",
			arm:     func(p *Proxy) { p.SetLatency(300 * time.Millisecond) },
			faulted: func(_ int, took time.Duration, _ error) bool { return took >= 300*time.Millisecond },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := NewProxy()
			if err != nil {
				t.Fatal(err)
			}
			defer p.Close()
			p.SetBackend(backend.Listener.Addr().String())
			tr := &http.Transport{}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 10 * time.Second}
			get := func() (int, time.Duration, error) {
				start := time.Now()
				resp, err := client.Get(p.URL())
				if err != nil {
					return 0, time.Since(start), err
				}
				defer resp.Body.Close()
				b, err := io.ReadAll(resp.Body)
				return len(b), time.Since(start), err
			}

			// A clean request leaves an idle keep-alive connection.
			if n, _, err := get(); err != nil || n != len(body) {
				t.Fatalf("clean request: err=%v, %d of %d bytes", err, n, len(body))
			}
			tc.arm(p)
			if n, took, err := get(); !tc.faulted(n, took, err) {
				t.Fatalf("request after arming escaped the fault: err=%v, %d bytes in %v", err, n, took)
			}
			p.Reset()
			if n, _, err := get(); err != nil || n != len(body) {
				t.Fatalf("request after reset: err=%v, %d of %d bytes", err, n, len(body))
			}
		})
	}
}
