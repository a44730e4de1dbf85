package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"
)

// newClient returns the benchmark's HTTP client: one keep-alive
// connection to the server, no proxy, no compression.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// driver runs ops in a closed loop: one caller that sends the next
// request only after the previous response has been read in full.
type driver struct {
	c    *http.Client
	base string
	// sessions maps a plan's session index to the id the server issued.
	sessions map[int]string
}

func newDriver(c *http.Client, base string) *driver {
	return &driver{c: c, base: base, sessions: make(map[int]string)}
}

// run sends every op in order and returns one result per op. Failed
// requests are recorded, never retried.
func (d *driver) run(ctx context.Context, ops []op) ([]result, error) {
	out := make([]result, len(ops))
	for i := range ops {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		out[i] = d.do(ctx, &ops[i])
	}
	return out, nil
}

// do sends one op and times it from just before the request is written
// to the last byte of the response body.
func (d *driver) do(ctx context.Context, o *op) result {
	method, url, want := http.MethodPost, d.base+o.path, http.StatusOK
	if o.kind != opSolve {
		id, ok := d.sessions[o.sess]
		switch o.kind {
		case opSessionCreate:
			url, want = d.base+"/session", http.StatusCreated
		case opSessionEvent:
			url = d.base + "/session/" + id + "/events"
		case opSessionDelete:
			method, url, want = http.MethodDelete, d.base+"/session/"+id, http.StatusNoContent
		}
		if !ok && o.kind != opSessionCreate {
			return result{failed: true, err: errors.New("session was never created")}
		}
	}
	var body io.Reader
	if o.body != nil {
		body = bytes.NewReader(o.body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, body)
	if err != nil {
		return result{failed: true, err: err}
	}
	r := result{reqBytes: len(o.body)}
	start := time.Now()
	resp, err := d.c.Do(req)
	if err == nil {
		r.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.latencyMs = float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		r.failed, r.err = true, err
		return r
	}
	r.code = resp.StatusCode
	if r.code != want {
		r.failed, r.err = true, fmt.Errorf("HTTP %d: %.200s", r.code, r.body)
		return r
	}
	if o.kind == opSessionCreate {
		var created struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(r.body, &created); err != nil || created.ID == "" {
			r.failed, r.err = true, fmt.Errorf("session create: bad response %.200s", r.body)
			return r
		}
		d.sessions[o.sess] = created.ID
	}
	return r
}
