package cluster

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"vmopt/internal/disptrace"
)

// DefaultPeerDeadline bounds one peer-fill fetch. Filling must stay
// decisively cheaper than re-simulating, but a full-scale trace file
// can run to tens of megabytes, so the bound is generous relative to
// a round trip and stingy relative to a simulation.
const DefaultPeerDeadline = 10 * time.Second

// maxFillBytes bounds one filled trace payload (a defense against a
// confused or malicious peer, not a tuning knob — real trace files
// are well under this).
const maxFillBytes = 1 << 30

// PeerClient implements the trace cache's Fill hook over the cluster:
// a local miss asks a peer for the raw trace bytes
// (GET /v1/traces/{id}/raw) before the caller falls back to
// simulating. Fetches are bounded by a deadline; the cache's flight
// already coalesces concurrent misses of one trace ID, so a herd costs
// the fleet one fetch. The cache verifies every filled payload against
// its content address; the client only moves bytes.
type PeerClient struct {
	// Ring places cell keys; Self is this instance's own member name
	// (its base URL in the ring), which the client never asks.
	Ring *Ring
	Self string

	// Client issues the fetches; its Timeout is the per-fill deadline.
	Client *http.Client
}

// NewPeerClient builds a peer client for an instance. deadline <= 0
// means DefaultPeerDeadline.
func NewPeerClient(ring *Ring, self string, deadline time.Duration) *PeerClient {
	if deadline <= 0 {
		deadline = DefaultPeerDeadline
	}
	return &PeerClient{Ring: ring, Self: self,
		Client: &http.Client{Timeout: deadline}}
}

// Fill fetches trace id from a peer. With a key it asks the owner of
// the key's cell; when this instance is itself the owner there is no
// better-informed peer to ask, so the miss is final (nil, nil) and the
// caller simulates — that simulation is exactly the work ownership
// assigns here. Without a key (the diff and trace-info paths, where
// the cell is not recoverable from the ID) it asks every other peer in
// the ID's ring order until one has it. 404 means a peer does not have
// the trace; transport errors and other statuses move on to the next
// candidate. Exhausting the candidates without an error is a clean
// miss (nil, nil); a fill that only ever errored reports the last
// error so the cache counts it as a fill failure.
func (p *PeerClient) Fill(id string, k *disptrace.Key) ([]byte, error) {
	var peers []string
	if k != nil {
		sd := max(int(k.ScaleDiv), 1)
		peers = []string{p.Ring.Owner(CellKey(k.Workload, k.Variant, sd))}
	} else {
		peers = p.Ring.Owners(id, len(p.Ring.Nodes()))
	}
	var lastErr error
	for _, peer := range peers {
		if peer == "" || peer == p.Self {
			continue
		}
		b, err := p.fetchOne(peer, id)
		if err != nil {
			lastErr = err
			continue
		}
		if b != nil {
			return b, nil
		}
	}
	return nil, lastErr
}

// fetchOne performs one GET /v1/traces/{id}/raw against one peer.
// (nil, nil) reports the peer does not have the trace.
func (p *PeerClient) fetchOne(peer, id string) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet,
		peer+"/v1/traces/"+id+"/raw", nil)
	if err != nil {
		return nil, err
	}
	resp, err := p.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		b, err := io.ReadAll(io.LimitReader(resp.Body, maxFillBytes))
		if err != nil {
			return nil, err
		}
		return b, nil
	case http.StatusNotFound:
		return nil, nil
	default:
		return nil, fmt.Errorf("peer %s: status %d", peer, resp.StatusCode)
	}
}
