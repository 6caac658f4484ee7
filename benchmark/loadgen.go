package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// The load generator is closed loop: each of C clients holds one
// keep-alive connection and sends its next request only when the previous
// answer has been read and checked. Callers of this service are
// application tiers that wait for a reply.

// client is one connection's worth of generator state.
type client struct {
	id   int
	http *http.Client
	buf  bytes.Buffer
}

func newClients(n int) []*client {
	cs := make([]*client, n)
	for i := range cs {
		cs[i] = &client{id: i, http: &http.Client{
			Timeout: 30 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: 1,
				MaxConnsPerHost:     1,
				DisableCompression:  true,
			},
		}}
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.http.CloseIdleConnections()
	}
}

// post sends one request and leaves the body in c.buf. reqID, when set,
// travels as X-Request-Id.
func (c *client) post(url, contentType, body, reqID string) (status int, err error) {
	req, err := http.NewRequest(http.MethodPost, url, strings.NewReader(body))
	if err != nil {
		return 0, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	if reqID != "" {
		req.Header.Set("X-Request-Id", reqID)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

var (
	rowsKey    = []byte(`"rows":[`)
	elapsedKey = []byte(`"elapsed_us":`)
)

// countRows counts the elements of the response's "rows" array without
// decoding them, and reads the server's own elapsed_us. The generator
// shares two cores with the server it measures; a full JSON decode of
// every 20 KiB answer would make the client the bottleneck. The first
// `"rows":[` in the body is the real one: inside the preceding "query"
// string every quote is escaped.
func countRows(body []byte) (rows int, elapsedUS int64, ok bool) {
	i := bytes.Index(body, rowsKey)
	if i < 0 {
		return 0, 0, false
	}
	i += len(rowsKey)
	depth := 1
	inStr := false
	for ; i < len(body) && depth > 0; i++ {
		c := body[i]
		if inStr {
			switch c {
			case '\\':
				i++
			case '"':
				inStr = false
			}
			continue
		}
		switch c {
		case '"':
			inStr = true
		case '[':
			if depth == 1 {
				rows++
			}
			depth++
		case ']':
			depth--
		}
	}
	if depth != 0 {
		return 0, 0, false
	}
	j := bytes.Index(body[i:], elapsedKey)
	if j < 0 {
		return rows, 0, false
	}
	k := i + j + len(elapsedKey)
	end := k
	for end < len(body) && body[end] >= '0' && body[end] <= '9' {
		end++
	}
	elapsedUS, err := strconv.ParseInt(string(body[k:end]), 10, 64)
	return rows, elapsedUS, err == nil
}

// reference is what a query text must answer: its raw row count, checked
// on every response, and a hash of its canonical rows, compared once at
// set-up between the server under test and the direct-schema oracle.
type reference struct {
	Rows int
	Hash string
}

// vertexToken is how the server renders a bare vertex in a row. Vertex
// ids differ between the direct and the optimized graph, so the
// comparison treats every such token as the same opaque value.
var vertexToken = regexp.MustCompile(`^"v[0-9]+"$`)

// canonicalRows undoes the reshaping the schema rewrite is allowed to do,
// so that answers from the direct and the optimized schema can be compared
// as multisets. It is the contract the repository's own equivalence test
// states, applied to served responses:
//
//   - a localized lookup returns one row per carrier vertex holding a list
//     where the direct schema returns one row per neighbour: list cells are
//     expanded into one row per element (an empty list into none);
//   - a localized aggregate returns one partial count per carrier vertex
//     where the direct schema returns one row per group: for queries that
//     aggregate, the integer cells are summed per group key and groups
//     that sum to 0 are dropped.
//
// Row order is unspecified on both sides, so the result is sorted.
func canonicalRows(text string, rows [][]json.RawMessage) []string {
	if strings.Contains(strings.ToUpper(text), "COLLECT(") {
		sums := map[string]float64{}
		for _, row := range rows {
			var key []string
			sum := 0.0
			for _, cell := range row {
				if n, err := strconv.ParseFloat(string(cell), 64); err == nil {
					sum += n
				} else {
					key = append(key, canonicalCell(cell))
				}
			}
			sums[strings.Join(key, "\x1f")] += sum
		}
		var out []string
		for k, v := range sums {
			if v != 0 {
				out = append(out, fmt.Sprintf("%s\x1f=%g", k, v))
			}
		}
		sort.Strings(out)
		return out
	}
	var out []string
	for _, row := range rows {
		expanded := []string{""}
		for _, cell := range row {
			values := []string{canonicalCell(cell)}
			if len(cell) > 0 && cell[0] == '[' {
				var els []json.RawMessage
				if json.Unmarshal(cell, &els) == nil {
					values = values[:0]
					for _, e := range els {
						values = append(values, canonicalCell(e))
					}
				}
			}
			next := make([]string, 0, len(expanded)*len(values))
			for _, prefix := range expanded {
				for _, v := range values {
					next = append(next, prefix+"\x1f"+v)
				}
			}
			expanded = next
		}
		out = append(out, expanded...)
	}
	sort.Strings(out)
	return out
}

func canonicalCell(cell json.RawMessage) string {
	if vertexToken.Match(cell) {
		return `"v?"`
	}
	return string(cell)
}

// queryRows runs one read and decodes its rows in full.
func (c *client) queryRows(base, text string) ([][]json.RawMessage, error) {
	status, err := c.post(base+"/query", "", text, "")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, truncate(c.buf.String(), 200))
	}
	var doc struct {
		Rows [][]json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(c.buf.Bytes(), &doc); err != nil {
		return nil, err
	}
	return doc.Rows, nil
}

// fetchReference asks base for text and summarizes the answer.
func (c *client) fetchReference(base, text string) (reference, error) {
	rows, err := c.queryRows(base, text)
	if err != nil {
		return reference{}, fmt.Errorf("%q: %w", text, err)
	}
	h := sha256.New()
	for _, r := range canonicalRows(text, rows) {
		h.Write([]byte(r))
		h.Write([]byte{'\n'})
	}
	return reference{Rows: len(rows), Hash: hex.EncodeToString(h.Sum(nil)[:12])}, nil
}

func truncate(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n] + "…"
}

// sample is one completed request as the client saw it.
type sample struct {
	Kind      reqKind
	LatencyMs float64
	ServerUS  int64 // the handler's own elapsed_us; 0 when unknown
	OK        bool
}

// do sends r, checks the answer, and reports the sample. A failed check
// returns a non-empty reason.
func (c *client) do(base string, r request, reqID string) (sample, string) {
	s := sample{Kind: r.Kind}
	start := time.Now()
	var status int
	var err error
	if r.Kind == kindWrite {
		status, err = c.post(base+"/mutate", "application/json", r.Body, reqID)
	} else {
		status, err = c.post(base+"/query", "", r.Body, reqID)
	}
	s.LatencyMs = float64(time.Since(start).Nanoseconds()) / 1e6
	switch {
	case err != nil:
		return s, "transport: " + err.Error()
	case status != http.StatusOK:
		return s, fmt.Sprintf("status %d: %s", status, truncate(c.buf.String(), 160))
	}
	if r.Kind == kindWrite {
		s.OK = true
		return s, ""
	}
	rows, us, ok := countRows(c.buf.Bytes())
	s.ServerUS = us
	switch {
	case !ok:
		return s, "unparsable response: " + truncate(c.buf.String(), 160)
	case r.AtLeast && rows < r.Want:
		return s, fmt.Sprintf("%d rows, reference has at least %d: %s", rows, r.Want, r.Body)
	case !r.AtLeast && rows != r.Want:
		return s, fmt.Sprintf("%d rows, reference has %d: %s", rows, r.Want, r.Body)
	}
	s.OK = true
	return s, ""
}

// window is one measurement interval of one workload.
type window struct {
	Seconds     float64 // first send to last answer
	Attempted   int
	Failed      int
	ReadMs      []float64 // latencies of successful reads, ascending
	WriteMs     []float64 // latencies of successful writes, ascending
	RespBytes   int64
	ServerCPUMs float64 // the child's utime+stime over the window
	ClientCPUMs float64 // the generator's own
	RSSMiB      float64 // the child's resident set, averaged over the window
	Errors      []string
}

func (w window) ok() int { return len(w.ReadMs) + len(w.WriteMs) }

// maxErrorSamples bounds the failure reasons kept per window; the count
// of failures is exact, the reasons are examples.
const maxErrorSamples = 5

// runWindow drives src through clients against srv for d. Requests in
// flight at the deadline complete and count; the window's length is
// measured to the last answer, so throughput is never overstated.
// onAck, when set, is called for every acknowledged write.
func runWindow(srv *serverProc, src source, clients []*client, d time.Duration, onAck func(client int, r request)) window {
	var w window
	var mu sync.Mutex
	var wg sync.WaitGroup
	rssStop := make(chan struct{})
	rss := make(chan float64, 1)
	go func() { rss <- meanRSSMiB(srv.pid(), rssStop) }()
	cpu0, _ := cpuMillis(srv.pid())
	self0, _ := cpuMillis(selfPID)
	start := time.Now()
	deadline := start.Add(d)
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			var local window
			for time.Now().Before(deadline) {
				r := src.next(c.id)
				s, reason := c.do(srv.base, r, "")
				local.Attempted++
				local.RespBytes += int64(c.buf.Len())
				switch {
				case !s.OK:
					local.Failed++
					if len(local.Errors) < maxErrorSamples {
						local.Errors = append(local.Errors, reason)
					}
				case s.Kind == kindWrite:
					local.WriteMs = append(local.WriteMs, s.LatencyMs)
					if onAck != nil {
						onAck(c.id, r)
					}
				default:
					local.ReadMs = append(local.ReadMs, s.LatencyMs)
				}
			}
			mu.Lock()
			w.Attempted += local.Attempted
			w.Failed += local.Failed
			w.RespBytes += local.RespBytes
			w.ReadMs = append(w.ReadMs, local.ReadMs...)
			w.WriteMs = append(w.WriteMs, local.WriteMs...)
			if len(w.Errors) < maxErrorSamples {
				w.Errors = append(w.Errors, local.Errors...)
			}
			mu.Unlock()
		}(c)
	}
	wg.Wait()
	w.Seconds = time.Since(start).Seconds()
	cpu1, _ := cpuMillis(srv.pid())
	self1, _ := cpuMillis(selfPID)
	w.ServerCPUMs = cpu1 - cpu0
	w.ClientCPUMs = self1 - self0
	close(rssStop)
	w.RSSMiB = <-rss
	sort.Float64s(w.ReadMs)
	sort.Float64s(w.WriteMs)
	return w
}
