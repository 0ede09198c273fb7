package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"

	"repro/internal/cas"
	"repro/internal/service"
)

// node is one in-process ehsimd: a service.Server behind a real
// loopback net/http listener, optionally over a disk CAS. The listener
// outlives the server, so restart can replace the server (fresh memory
// tier, same CAS directory) without changing the node's URL — the
// identity the rendezvous ring hashes.
type node struct {
	url string
	dir string // CAS directory; "" for a storeless node
	cfg service.Config

	hs    *http.Server
	cur   atomic.Pointer[booted]
	serve chan error // Serve's return value
}

// booted is the server currently answering on a node.
type booted struct {
	srv *service.Server
	h   http.Handler
}

// startNode listens on a loopback port and boots a server with cfg.
// When cfg.Peers is set, SelfURL is filled in with the node's URL.
func startNode(dir string, cfg service.Config) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{url: "http://" + ln.Addr().String(), dir: dir, cfg: cfg, serve: make(chan error, 1)}
	if len(n.cfg.Peers) > 0 {
		n.cfg.SelfURL = n.url
	}
	if err := n.boot(); err != nil {
		ln.Close()
		return nil, err
	}
	n.hs = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.cur.Load().h.ServeHTTP(w, r)
	})}
	go func() { n.serve <- n.hs.Serve(ln) }()
	return n, nil
}

// boot starts a fresh server over the node's CAS directory.
func (n *node) boot() error {
	cfg := n.cfg
	if n.dir != "" {
		st, err := cas.Open(n.dir, cas.Options{})
		if err != nil {
			return fmt.Errorf("open CAS: %w", err)
		}
		cfg.CAS = st
	}
	srv := service.New(cfg).Start()
	n.cur.Store(&booted{srv: srv, h: srv.Handler()})
	return nil
}

// server returns the server currently answering on the node.
func (n *node) server() *service.Server { return n.cur.Load().srv }

// restart drains the current server and boots a new one on the same
// CAS directory: the memory tier starts empty, the disk tier survives.
func (n *node) restart() error {
	n.server().Drain()
	return n.boot()
}

// close stops the listener, waits for Serve to return, and drains the
// server.
func (n *node) close() error {
	err := n.hs.Close()
	if serr := <-n.serve; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	n.server().Drain()
	return err
}
