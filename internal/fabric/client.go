package fabric

import (
	"context"
	"net/http"

	"repro/internal/api"
)

// Client speaks the /v1/fabric protocol against one coordinator.
type Client struct {
	c *api.Client
}

// NewClient returns a fabric client for the coordinator at base.
func NewClient(base string) *Client {
	return &Client{c: api.NewClient(base)}
}

// NewClientHTTP is NewClient with an explicit transport (tests, timeouts).
func NewClientHTTP(base string, h *http.Client) *Client {
	c := api.NewClient(base)
	c.HTTP = h
	return &Client{c: c}
}

// Each protocol route is one method. A trace carried by ctx is propagated
// to the coordinator, so a chunk's lease and its completion correlate under
// one trace ID across processes; the request dies with ctx.

// Join announces a worker and fetches the campaign contract.
func (c *Client) Join(ctx context.Context, req api.JoinRequest) (api.JoinResponse, error) {
	var resp api.JoinResponse
	err := c.c.Do(ctx, http.MethodPost, "/v1/fabric/join", req, &resp)
	return resp, err
}

// Lease requests chunks of work.
func (c *Client) Lease(ctx context.Context, req api.LeaseRequest) (api.LeaseResponse, error) {
	var resp api.LeaseResponse
	err := c.c.Do(ctx, http.MethodPost, "/v1/fabric/lease", req, &resp)
	return resp, err
}

// Heartbeat extends the worker's leases.
func (c *Client) Heartbeat(ctx context.Context, req api.HeartbeatRequest) (api.HeartbeatResponse, error) {
	var resp api.HeartbeatResponse
	err := c.c.Do(ctx, http.MethodPost, "/v1/fabric/heartbeat", req, &resp)
	return resp, err
}

// Complete posts one finished chunk's masks.
func (c *Client) Complete(ctx context.Context, req api.CompleteRequest) (api.CompleteResponse, error) {
	var resp api.CompleteResponse
	err := c.c.Do(ctx, http.MethodPost, "/v1/fabric/complete", req, &resp)
	return resp, err
}
