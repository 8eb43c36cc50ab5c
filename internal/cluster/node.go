package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"sti/internal/store"
)

// Peer names one cluster member and its base URL (scheme://host:port,
// no trailing slash). The same static peer list — typically the
// -peers flag — is handed to every router and node, so placement is
// computed identically everywhere without coordination.
type Peer struct {
	Name string
	URL  string
}

// ParsePeers parses a -peers flag value: comma-separated name=url
// pairs, e.g. "a=http://10.0.0.1:8080,b=http://10.0.0.2:8080".
func ParsePeers(s string) ([]Peer, error) {
	var peers []Peer
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part == "" {
			continue
		}
		name, rawurl, ok := strings.Cut(part, "=")
		if !ok || name == "" || rawurl == "" {
			return nil, fmt.Errorf("cluster: peer %q is not name=url", part)
		}
		u, err := url.Parse(rawurl)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("cluster: peer %q has no absolute url", part)
		}
		peers = append(peers, Peer{Name: name, URL: strings.TrimRight(rawurl, "/")})
	}
	if len(peers) == 0 {
		return nil, fmt.Errorf("cluster: empty peer list")
	}
	return peers, nil
}

// newTransport is the cluster's HTTP transport: HTTP/2 when peers
// speak TLS (ForceAttemptHTTP2), persistent HTTP/1.1 connections on
// plaintext — the stdlib has no h2c, and cross-node links inside one
// rack lose nothing to HTTP/1.1 keep-alive.
func newTransport() *http.Transport {
	return &http.Transport{
		ForceAttemptHTTP2:   true,
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
}

// NodeBackend is what a Node needs from the process's fleet: the donor
// and consumer sides of the peer cache level. *sti.Fleet implements it.
type NodeBackend interface {
	Names() []string
	PeekShardPayload(model string, layer, slice, bits int) ([]byte, bool)
	SetPeerFetch(model string, fn store.PeerFetch) error
}

// NodeOptions tune one cluster member.
type NodeOptions struct {
	Ring RingOptions
	// PeerTimeout bounds one peer-cache lookup (default 100ms): past
	// it the miss falls through to local flash. It rides inside the
	// shard's single flight, so a dead peer costs at most one timeout
	// per distinct missing shard at a time.
	PeerTimeout time.Duration
	// Client overrides the peer-fetch HTTP client (tests).
	Client *http.Client
}

// Node is the cluster-facing side of one sti-serve process: it wires
// the fleet's shared caches to the peers holding each model (the
// consumer side of the two-level cache) and serves the donor side,
// /cluster/shard. The process's ordinary serving surface (/v2/infer
// etc.) is untouched; main mounts both on one listener.
type Node struct {
	backend NodeBackend
	self    string
	peers   map[string]string // name → base URL
	ring    *Ring
	client  *http.Client
	timeout time.Duration
	mux     *http.ServeMux
}

// NewNode builds the cluster wiring for one member. self must be one
// of peers' names; every model currently in the fleet gets its shared
// cache's peer level installed.
func NewNode(backend NodeBackend, self string, peers []Peer, opts NodeOptions) (*Node, error) {
	names := make([]string, len(peers))
	byName := make(map[string]string, len(peers))
	for i, p := range peers {
		names[i] = p.Name
		byName[p.Name] = p.URL
	}
	if _, ok := byName[self]; !ok {
		return nil, fmt.Errorf("cluster: node %q is not in the peer list", self)
	}
	ring, err := NewRing(names, opts.Ring)
	if err != nil {
		return nil, err
	}
	if opts.PeerTimeout <= 0 {
		opts.PeerTimeout = 100 * time.Millisecond
	}
	client := opts.Client
	if client == nil {
		client = &http.Client{Transport: newTransport()}
	}
	n := &Node{
		backend: backend,
		self:    self,
		peers:   byName,
		ring:    ring,
		client:  client,
		timeout: opts.PeerTimeout,
		mux:     http.NewServeMux(),
	}
	n.mux.HandleFunc("GET /cluster/shard", n.handleShard)
	for _, model := range backend.Names() {
		if err := backend.SetPeerFetch(model, n.peerFetch(model)); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// Handler serves the /cluster/shard endpoint.
func (n *Node) Handler() http.Handler { return n.mux }

// Close detaches the peer level from every model's shared cache;
// misses go straight to flash again.
func (n *Node) Close() {
	for _, model := range n.backend.Names() {
		n.backend.SetPeerFetch(model, nil) //nolint:errcheck — detaching a removed model is fine
	}
}

// peerFetch builds the consumer-side hook one model's shared cache
// calls on a miss: ask the other holders of the model (ring order) for
// their retained copy. It runs inside the cache's single flight and
// outside all locks; a miss, a timeout or a corrupt body returns
// ok=false and the cache falls through to flash.
func (n *Node) peerFetch(model string) store.PeerFetch {
	return func(layer, slice, bits int) ([]byte, bool) {
		for _, holder := range n.ring.Place(model) {
			if holder == n.self {
				continue
			}
			if p, ok := n.fetchOne(n.peers[holder], model, layer, slice, bits); ok {
				return p, true
			}
		}
		return nil, false
	}
}

// fetchOne asks one peer for a retained payload. The body must carry
// a valid CRC trailer: the cache retains whatever a peer level hands
// it and keeps it while in use, so one corrupt body admitted here
// would fail every later decode of that shard instead of one read.
func (n *Node) fetchOne(base, model string, layer, slice, bits int) ([]byte, bool) {
	ctx, cancel := context.WithTimeout(context.Background(), n.timeout)
	defer cancel()
	u := fmt.Sprintf("%s/cluster/shard?model=%s&layer=%d&slice=%d&bits=%d",
		base, url.QueryEscape(model), layer, slice, bits)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, false
	}
	resp, err := n.client.Do(req)
	if err != nil {
		return nil, false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body) //nolint:errcheck — drain for connection reuse
		return nil, false
	}
	p, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, false
	}
	if _, err := store.VerifyPayload(p); err != nil {
		return nil, false
	}
	return p, true
}

// handleShard is the donor side: report a retained payload, or 404.
// It never reads flash on a peer's behalf — Peek is memory-only — so
// a storm of peer misses cannot induce IO here.
func (n *Node) handleShard(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	model := q.Get("model")
	layer, err1 := strconv.Atoi(q.Get("layer"))
	slice, err2 := strconv.Atoi(q.Get("slice"))
	bits, err3 := strconv.Atoi(q.Get("bits"))
	if model == "" || err1 != nil || err2 != nil || err3 != nil {
		http.Error(w, "want model, layer, slice, bits", http.StatusBadRequest)
		return
	}
	p, ok := n.backend.PeekShardPayload(model, layer, slice, bits)
	if !ok {
		http.Error(w, "not retained", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set("Content-Length", strconv.Itoa(len(p)))
	w.Write(p) //nolint:errcheck — a vanished peer just re-reads flash
}
