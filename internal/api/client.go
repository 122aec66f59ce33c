package api

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro/internal/obs"
)

// Client speaks the /v1 wire surface against one base URL. The zero Base is
// invalid; a nil HTTP falls back to http.DefaultClient. Client is stateless
// and safe for concurrent use.
type Client struct {
	// Base is the service root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP optionally overrides the transport (timeouts, connection
	// pooling); nil means http.DefaultClient.
	HTTP *http.Client
}

// NewClient returns a client for the given base URL.
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// Do round-trips one JSON request: method + path against Base, in as the
// body (nil for none), the response decoded into out (nil to discard). A
// non-2xx response decodes the error envelope and returns it as *Error.
// The request is cancellable through ctx, and a trace carried by ctx
// (obs.ContextWithTrace) is stamped onto the outbound headers so the server
// joins the caller's trace.
func (c *Client) Do(ctx context.Context, method, path string, in, out any) error {
	var body *bytes.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("api: encoding %s %s: %w", method, path, err)
		}
		body = bytes.NewReader(b)
	} else {
		body = bytes.NewReader(nil)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tc, ok := obs.TraceFrom(ctx); ok {
		InjectTrace(req.Header, tc)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return fmt.Errorf("api: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return DecodeError(resp.StatusCode, drainBody(resp.Body, 1<<20))
	}
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("api: decoding %s %s response: %w", method, path, err)
	}
	return nil
}

// Predict posts one prediction request.
func (c *Client) Predict(req PredictRequest) (PredictResponse, error) {
	var resp PredictResponse
	err := c.Do(context.Background(), http.MethodPost, "/v1/predict", req, &resp)
	return resp, err
}
