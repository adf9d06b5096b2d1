package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// client is one keep-alive HTTP/1.1 connection driven with pre-encoded
// request bytes: while timing, the generator neither encodes JSON nor runs
// net/http's transport goroutines, so one stream is exactly one goroutine
// and one connection.
type client struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
}

func newClient(addr string) *client { return &client{addr: addr} }

// encodeRequest renders a complete HTTP/1.1 request.
func encodeRequest(method, path string, body []byte) []byte {
	head := fmt.Sprintf("%s %s HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n",
		method, path, len(body))
	return append([]byte(head), body...)
}

// do sends one pre-encoded request and reads the whole response. Any
// transport error drops the connection; the next call dials afresh.
func (c *client) do(req []byte, timeout time.Duration) (status int, body []byte, err error) {
	deadline := time.Now().Add(timeout)
	if c.c == nil {
		conn, err := net.DialTimeout("tcp", c.addr, timeout)
		if err != nil {
			return 0, nil, err
		}
		c.c, c.br = conn, bufio.NewReader(conn)
	}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	if err := c.c.SetDeadline(deadline); err != nil {
		return 0, nil, err
	}
	if _, err := c.c.Write(req); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	if resp.Close {
		c.close()
	}
	return resp.StatusCode, body, nil
}

func (c *client) close() {
	if c.c != nil {
		c.c.Close()
		c.c, c.br = nil, nil
	}
}

// shot is one request as the generator saw it. Times are offsets from the
// start of the phase.
type shot struct {
	Req    int           // index of the pre-encoded request sent
	Due    time.Duration // scheduled send time (open loop; 0 in closed loop)
	Sent   time.Duration
	Done   time.Duration
	Lag    time.Duration // Sent - max(Due, this stream's previous Done)
	Status int
	Body   []byte
	Err    error
}

// ok reports a 2xx response.
func (s shot) ok() bool { return s.Err == nil && s.Status/100 == 2 }

// latency is the request's time as a user sees it: from when it was due
// in an open loop (so a stall is charged to every request queued behind
// it), from when it was sent in a closed loop.
func (s shot) latency() time.Duration { return s.Done - s.Due }

// openLoop sends reqs[pick[i]] at start+due[i] on one connection, in
// order. A request that falls due while the previous one is outstanding
// goes out the moment the connection frees; its latency still counts from
// its due time, which is what makes the loop coordinated-omission correct.
// tick, if not nil, runs before each send.
func openLoop(c *client, start time.Time, due []time.Duration, pick []int, reqs [][]byte, timeout time.Duration, tick func()) []shot {
	out := make([]shot, len(due))
	var prevDone time.Duration
	for i := range due {
		if tick != nil {
			tick()
		}
		if d := time.Until(start.Add(due[i])); d > 0 {
			time.Sleep(d)
		}
		s := shot{Req: pick[i], Due: due[i], Sent: time.Since(start)}
		s.Lag = s.Sent - max(s.Due, prevDone)
		s.Status, s.Body, s.Err = c.do(reqs[pick[i]], timeout)
		s.Done = time.Since(start)
		prevDone = s.Done
		out[i] = s
	}
	return out
}

// closedLoop runs n requests over conns connections, each sending its next
// request as soon as the previous one answers; request i is reqs[pick[i]].
// It returns the shots in request order, with times from start. tick, if
// not nil, runs before each send on the calling goroutine's connection.
func closedLoop(addr string, start time.Time, conns, n int, pick []int, reqs [][]byte, timeout time.Duration, tick func()) []shot {
	out := make([]shot, n)
	var next atomic.Int64
	worker := func(tick func()) {
		c := newClient(addr)
		defer c.close()
		for {
			if tick != nil {
				tick()
			}
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			s := shot{Req: pick[i], Sent: time.Since(start)}
			s.Due = s.Sent
			s.Status, s.Body, s.Err = c.do(reqs[pick[i]], timeout)
			s.Done = time.Since(start)
			out[i] = s
		}
	}
	var wg sync.WaitGroup
	wg.Add(conns - 1)
	for k := 1; k < conns; k++ {
		go func() {
			defer wg.Done()
			worker(nil)
		}()
	}
	worker(tick) // the calling goroutine is the last connection
	wg.Wait()
	return out
}

// lagP99Ms is the generator's own lateness: the p99 of how long after a
// request could have gone out (due, and its connection free) it was sent.
func lagP99Ms(shots ...[]shot) float64 {
	var lag []float64
	for _, ss := range shots {
		for _, s := range ss {
			lag = append(lag, ms(s.Lag))
		}
	}
	if len(lag) == 0 {
		return 0
	}
	// Validity wants the tail however thin it is, so no minTail rule here.
	sort.Float64s(lag)
	return quantile(lag, 0.99)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
