package gateway

import (
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
	"time"

	"repro/internal/httpmsg"
	"repro/internal/session"
)

// This file is the one control-plane client: the campaign runner, the
// fleet scraper and aontrace read /stats, /timeline, /traces and /fault
// through GetJSON/PostJSON, over the load driver's Client and so under
// the one framer's bounds (httpmsg.ReadResponseHead: 8 MiB bodies).

// statusError is a control-plane answer other than 200.
type statusError struct {
	Method, Path string
	Status       int
	Body         string // first 200 bytes
}

func (e *statusError) Error() string {
	return fmt.Sprintf("%s %s: %d %s: %s", e.Method, e.Path, e.Status, httpmsg.StatusText(e.Status), e.Body)
}

// IsNotFound reports whether err is a control-plane 404 — how a node
// says the plane asked about (timeline, tracing) is switched off.
func IsNotFound(err error) bool {
	var se *statusError
	return errors.As(err, &se) && se.Status == 404
}

// GetJSON fetches path from the node at addr and decodes the 200 body
// into out. timeout bounds the whole exchange, dial included.
func GetJSON(addr, path string, timeout time.Duration, out any) error {
	return controlJSON(addr, "GET", path, nil, timeout, out)
}

// PostJSON posts in as JSON to path and decodes the 200 body into out.
func PostJSON(addr, path string, in any, timeout time.Duration, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("POST %s: %w", path, err)
	}
	return controlJSON(addr, "POST", path, body, timeout, out)
}

func controlJSON(addr, method, path string, body []byte, timeout time.Duration, out any) error {
	cl, err := dialTimeout(addr, timeout)
	if err != nil {
		return err
	}
	defer cl.Close()
	resp, err := cl.Do(httpmsg.FormatRequest(&httpmsg.Request{
		Method: method,
		Target: path,
		Proto:  "HTTP/1.1",
		Headers: []httpmsg.Header{
			{Name: "Host", Value: addr},
			{Name: "Connection", Value: "close"},
			{Name: "Content-Length", Value: strconv.Itoa(len(body))},
		},
		Body: body,
	}), timeout)
	if err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.Status != 200 {
		return &statusError{Method: method, Path: path, Status: resp.Status,
			Body: string(resp.Body[:min(len(resp.Body), 200)])}
	}
	if err := json.Unmarshal(resp.Body, out); err != nil {
		return fmt.Errorf("%s %s: %w", method, path, err)
	}
	return nil
}

// FetchStats pulls a gateway's cumulative GET /stats view.
func FetchStats(addr string, timeout time.Duration) (*Snapshot, error) {
	var snap Snapshot
	if err := GetJSON(addr, "/stats", timeout, &snap); err != nil {
		return nil, err
	}
	return &snap, nil
}

// Sample flattens a scraped /stats view into a timeline sample whose
// Messages, BytesIn and Shed still hold the gateway's cumulative
// counters: session.Windower differences them against the previous
// scrape. The time axis is the gateway's own uptime — monotonic, immune
// to wall-clock skew and steps, which is what cross-node alignment
// needs.
func (snap *Snapshot) Sample() session.Sample {
	s := session.Sample{
		TMS:          int64(snap.UptimeSec * 1000),
		Messages:     snap.Messages,
		BytesIn:      snap.BytesIn,
		Shed:         snap.Shed,
		LatencyP50US: snap.Latency.P50US,
		LatencyP99US: snap.Latency.P99US,
		GOMAXPROCS:   snap.Workers,
	}
	if c := snap.Counters; c != nil {
		s.CPI = c.Derived.CPI
		s.CacheMPI = c.Derived.CacheMPI
		s.BrMPR = c.Derived.BrMPR
		s.DerivedSource = c.DerivedSource
		s.Goroutines = c.Runtime.Goroutines
	}
	return s
}
