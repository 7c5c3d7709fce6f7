package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// Result is the client's record of one op.
type Result struct {
	Sent    time.Duration // offsets from the window start
	Done    time.Duration
	Latency time.Duration // Done − Due
	Err     error
	Version int
	Window  int
}

// Service is the time the request spent on the wire and in the server.
func (r Result) Service() time.Duration { return r.Done - r.Sent }

// client is one keep-alive HTTP/1.1 connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{
		Timeout: 60 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
		},
	}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and decodes a 2xx JSON body into out (nil: discard).
func (c *client) do(method, path string, body []byte, out any) error {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading body: %w", method, path, err)
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(b, out); err != nil {
		return fmt.Errorf("%s %s: decoding: %w", method, path, err)
	}
	return nil
}

// sessionPath is the URL prefix of the benchmark's session.
const sessionPath = "/v1/sessions/" + sessionName

const sessionName = "bench"

// opBody is the JSON body an op sends (nil for GETs).
func opBody(op *Op) []byte {
	var v any
	switch op.Kind {
	case OpAdd:
		v = map[string]any{"x": op.Point.X, "y": op.Point.Y}
	case OpDelete:
		v = map[string]any{"indices": op.Indices}
	default:
		return nil
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain numbers always marshal
	}
	return b
}

// opResponse is the union of the fields the write endpoints return.
type opResponse struct {
	Version int `json:"version"`
	Window  int `json:"window"`
}

// Exec sends one op over c.
func (c *client) Exec(op *Op) (opResponse, error) {
	var resp opResponse
	var err error
	switch op.Kind {
	case OpAdd:
		err = c.do("POST", sessionPath+"/add", opBody(op), &resp)
	case OpDelete:
		err = c.do("POST", sessionPath+"/remove", opBody(op), &resp)
	case OpValues:
		err = c.do("GET", sessionPath+"/values", nil, nil)
	case OpTopK:
		err = c.do("GET", sessionPath+"/topk?k=10", nil, nil)
	case OpSnapshot:
		err = c.do("POST", sessionPath+"/snapshot", nil, nil)
	}
	return resp, err
}

// Executor runs one op; the HTTP client and the in-process traced replay
// both implement it.
type Executor interface {
	Exec(op *Op) (opResponse, error)
}

// runOpenLoop dispatches the plan's ops at their due times onto the
// pools' executors (one goroutine per connection, FIFO per pool) and
// returns each op's result, indexed by Seq, plus how late the dispatcher
// released each op.
func runOpenLoop(p Plan, pools [][]Executor) ([]Result, []float64) {
	results := make([]Result, len(p.Ops))
	// Each pool channel holds every op it will ever carry, so the
	// dispatcher never blocks on a busy pool.
	chans := make([]chan *Op, len(pools))
	counts := make([]int, len(pools))
	for _, op := range p.Ops {
		counts[op.Pool]++
	}
	var wg sync.WaitGroup
	start := time.Now()
	for i, execs := range pools {
		chans[i] = make(chan *Op, counts[i])
		for _, ex := range execs {
			wg.Add(1)
			go func(ch <-chan *Op, ex Executor) {
				defer wg.Done()
				for op := range ch {
					sent := time.Since(start)
					resp, err := ex.Exec(op)
					done := time.Since(start)
					results[op.Seq] = Result{
						Sent: sent, Done: done, Latency: done - op.Due, Err: err,
						Version: resp.Version, Window: resp.Window,
					}
				}
			}(chans[i], ex)
		}
	}
	late := make([]float64, len(p.Ops))
	for i := range p.Ops {
		op := &p.Ops[i]
		if d := op.Due - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		late[i] = ms(time.Since(start) - op.Due)
		chans[op.Pool] <- op
	}
	for _, ch := range chans {
		close(ch)
	}
	wg.Wait()
	return results, late
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
