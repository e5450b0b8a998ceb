package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"slap/internal/aig"
)

// response is the union of the /v1/map and /v1/classify answer fields the
// harness reads. It is declared here, from the HTTP API, so the harness
// depends on the wire format only.
type response struct {
	Area          float64 `json:"area"`
	Delay         float64 `json:"delay"`
	LUTs          int     `json:"luts"`
	Depth         int32   `json:"depth"`
	QueueMS       float64 `json:"queue_ms"`
	ElapsedMS     float64 `json:"elapsed_ms"`
	Verified      bool    `json:"verified"`
	Netlist       string  `json:"netlist"`
	NetlistFormat string  `json:"netlist_format"`
	// /v1/classify only.
	Nodes     int   `json:"nodes"`
	Cuts      int   `json:"cuts"`
	Histogram []int `json:"histogram"`
}

// request is one HTTP call the harness makes: an endpoint, its query, and
// the AIGER bytes of the generated input (g is kept for checking).
type request struct {
	design string
	path   string // /v1/map or /v1/classify
	query  string
	target string // asic or lut for /v1/map
	body   []byte
	g      *aig.AIG
	// ref marks the reference inputs of a run: the first pass of a cold
	// workload, the initial version of each design in the replay. QoR and
	// the traced replay use exactly these, so both depend on the seed only.
	ref bool
}

// sample is one completed call. The answer is kept raw until decode.
type sample struct {
	req  *request
	lat  time.Duration
	raw  []byte
	resp response
	err  error
}

// client is the load generator's HTTP client: one connection per client
// goroutine, so load never uses more connections than goroutines.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string, conns int) *client {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	return &client{base: base, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends r and times it from the request's first byte to the response's
// last byte.
func (c *client) do(ctx context.Context, r *request) sample {
	s := sample{req: r}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+r.path+"?"+r.query, bytes.NewReader(r.body))
	if err != nil {
		s.err = err
		return s
	}
	hr.Header.Set("Content-Type", "text/plain")
	t0 := time.Now()
	resp, err := c.hc.Do(hr)
	if err != nil {
		s.err = err
		return s
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	s.lat = time.Since(t0)
	switch {
	case err != nil:
		s.err = err
	case resp.StatusCode != http.StatusOK:
		s.err = fmt.Errorf("%s %s: %s: %s", r.path, r.query, resp.Status, bytes.TrimSpace(body))
	default:
		s.raw = body
	}
	return s
}

// decode parses the answers of samples. The harness defers it until the
// window has closed, so its own CPU use does not compete with the server's.
func decode(samples []sample) {
	for i := range samples {
		s := &samples[i]
		if s.err == nil {
			if err := json.Unmarshal(s.raw, &s.resp); err != nil {
				s.err = fmt.Errorf("decoding %s response: %w", s.req.path, err)
			}
		}
		s.raw = nil
	}
}

// encode renders g as the AIGER text the server receives.
func encode(g *aig.AIG) []byte {
	var b bytes.Buffer
	g.WriteAAG(&b)
	return b.Bytes()
}
