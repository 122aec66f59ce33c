package fabric_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/api"
	"repro/internal/fabric"
)

// Whatever body a worker posts to /v1/fabric/{join,lease,heartbeat,complete},
// the coordinator answers a 200 whose body decodes to the route's response
// type, or a 4xx carrying the {code,message} envelope; never a 5xx or a
// panic. route picks the endpoint (modulo four).
func FuzzCoordinatorRequests(f *testing.F) {
	coord, err := fabric.NewCoordinator(fabric.CoordinatorConfig{Spec: testSpec()})
	if err != nil {
		f.Fatal(err)
	}
	h := coord.Handler()
	routes := []struct {
		path string
		resp func() any
	}{
		{"/v1/fabric/join", func() any { return new(api.JoinResponse) }},
		{"/v1/fabric/lease", func() any { return new(api.LeaseResponse) }},
		{"/v1/fabric/heartbeat", func() any { return new(api.HeartbeatResponse) }},
		{"/v1/fabric/complete", func() any { return new(api.CompleteResponse) }},
	}
	camp := coord.Campaign()
	done, err := camp.Plan.RunChunks(context.Background(), []int{0})
	if err != nil {
		f.Fatal(err)
	}
	complete := func(chunk int, masks []string) []byte {
		b, err := json.Marshal(api.CompleteRequest{Worker: "w", Chunk: chunk, PlanHash: camp.PlanHashHex(), Masks: masks})
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	masks := api.EncodeMasks(done[0])
	// Valid bodies for every route (chunk 0's real masks and plan hash among
	// them), wrong-length and non-hex masks, negative and out-of-range chunks,
	// an empty worker name and a few malformed bodies.
	f.Add(uint8(0), []byte(`{"worker":"w"}`))
	f.Add(uint8(1), []byte(`{"worker":"w","max":2}`))
	f.Add(uint8(2), []byte(`{"worker":"w","chunks":[0,1]}`))
	f.Add(uint8(3), complete(0, masks))
	f.Add(uint8(3), complete(0, append(masks, "0")))
	f.Add(uint8(3), complete(0, []string{"xyz"}))
	f.Add(uint8(3), complete(-1, masks))
	f.Add(uint8(3), complete(camp.Plan.NumChunks(), masks))
	f.Add(uint8(2), []byte(`{"worker":"w","chunks":[-1,1000000]}`))
	f.Add(uint8(1), []byte(`{"worker":"w","max":-5}`))
	f.Add(uint8(0), []byte(`{"worker":""}`))
	f.Add(uint8(1), []byte(`{"worker":`))
	f.Add(uint8(3), []byte(`{"worker":"w","chunk":0,"plan_hash":"0","masks":null}`))
	f.Fuzz(func(t *testing.T, route uint8, body []byte) {
		r := routes[route%4]
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			dec := json.NewDecoder(rec.Body)
			dec.DisallowUnknownFields()
			if err := dec.Decode(r.resp()); err != nil {
				t.Fatalf("%s: 200 whose body does not decode: %v", r.path, err)
			}
			return
		}
		if rec.Code < 400 || rec.Code >= 500 {
			t.Fatalf("%s: status %d for body %q: %s", r.path, rec.Code, body, rec.Body.String())
		}
		var er api.ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == nil || er.Error.Code == "" || er.Error.Message == "" {
			t.Fatalf("%s: status %d without an envelope: %q", r.path, rec.Code, rec.Body.String())
		}
	})
}
