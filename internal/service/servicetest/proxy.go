// Package servicetest boots multi-node ehsimd clusters in-process for
// integration tests: every node is a real service.Server behind a real
// loopback listener, and all peer traffic flows through a per-node
// fault-injection proxy so tests can make a peer refuse connections,
// answer slowly, or disconnect mid-body without touching the node
// itself.
package servicetest

import (
	"io"
	"net"
	"sync"
	"time"
)

// Proxy is a TCP relay with switchable faults. It sits between a node's
// advertised address (the proxy listener — what peers dial) and the
// node's actual HTTP listener (the backend), so injected faults affect
// exactly the traffic a real network fault would: everything addressed
// to the node from outside.
//
// Faults are sampled once per connection, when it is accepted. Changing
// a fault therefore severs every live relay: a client's keep-alive
// connection opened before the change would otherwise carry its next
// request past the fault, so instead that request dials again and sees
// the current settings.
type Proxy struct {
	ln net.Listener

	mu       sync.Mutex
	backend  string                // node's real listener address
	refuse   bool                  // drop connections on accept (node "down")
	latency  time.Duration         // sleep before dialing the backend (node "slow")
	cutAfter int64                 // >0: close both ends after relaying this many response bytes
	live     map[net.Conn]struct{} // client and backend ends of open relays
}

// NewProxy starts a relay on a fresh loopback port. The backend is set
// later (SetBackend) — the proxy's address must exist before the node
// boots, because it is the node's advertised identity on the ring.
func NewProxy() (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, live: make(map[net.Conn]struct{})}
	go p.acceptLoop()
	return p, nil
}

// URL is the proxy's base URL — the node's advertised address.
func (p *Proxy) URL() string { return "http://" + p.ln.Addr().String() }

// SetBackend points the relay at the node's real listener. Called on
// boot and again on every restart (the backend port changes).
func (p *Proxy) SetBackend(addr string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.backend = addr
}

// Refuse makes new connections fail immediately, like a dead host.
func (p *Proxy) Refuse(v bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refuse = v
	p.severLocked()
}

// SetLatency delays each new connection before the backend dial — a
// slow peer. Set it past the cluster's peer timeout to force timeouts.
func (p *Proxy) SetLatency(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.latency = d
	p.severLocked()
}

// CutResponseAfter relays only n bytes of each response (headers
// included) and then drops both ends — a mid-body disconnect.
func (p *Proxy) CutResponseAfter(n int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cutAfter = n
	p.severLocked()
}

// Reset clears all injected faults.
func (p *Proxy) Reset() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refuse, p.latency, p.cutAfter = false, 0, 0
	p.severLocked()
}

// severLocked closes both ends of every live relay. p.mu must be held.
func (p *Proxy) severLocked() {
	for c := range p.live {
		c.Close()
	}
	clear(p.live)
}

// track registers conn as part of the relay whose client end is client.
// It reports false, without registering, if that relay was severed.
func (p *Proxy) track(client, conn net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, ok := p.live[client]; !ok {
		return false
	}
	p.live[conn] = struct{}{}
	return true
}

// untrack forgets a closed relay end.
func (p *Proxy) untrack(conn net.Conn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.live, conn)
}

// Close stops accepting. Existing relays finish on their own.
func (p *Proxy) Close() { p.ln.Close() }

func (p *Proxy) acceptLoop() {
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return
		}
		go p.relay(conn)
	}
}

func (p *Proxy) relay(client net.Conn) {
	p.mu.Lock()
	refuse, latency, cut, backend := p.refuse, p.latency, p.cutAfter, p.backend
	p.live[client] = struct{}{}
	p.mu.Unlock()
	defer p.untrack(client)

	if refuse || backend == "" {
		client.Close()
		return
	}
	if latency > 0 {
		time.Sleep(latency)
	}
	server, err := net.Dial("tcp", backend)
	if err != nil {
		client.Close()
		return
	}
	defer p.untrack(server)
	if !p.track(client, server) {
		// Severed while sleeping or dialing.
		client.Close()
		server.Close()
		return
	}

	done := make(chan struct{}, 2)
	go func() { // request direction
		io.Copy(server, client)
		if tc, ok := server.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		done <- struct{}{}
	}()
	go func() { // response direction — where the cut applies
		if cut > 0 {
			io.CopyN(client, server, cut)
			client.Close()
			server.Close()
		} else {
			io.Copy(client, server)
			if tc, ok := client.(*net.TCPConn); ok {
				tc.CloseWrite()
			}
		}
		done <- struct{}{}
	}()
	<-done
	<-done
	client.Close()
	server.Close()
}
