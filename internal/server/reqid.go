package server

// Request-ID tracing. Every HTTP request gets an ID: a sane client-sent
// X-Request-Id is honored so callers can stitch our records into their
// own traces; otherwise one is generated from a per-boot random prefix
// and an atomic sequence. The ID is echoed in the X-Request-Id response
// header on every endpoint (success and error alike), embedded in every
// error body, and stamped on slow-query log entries.

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync/atomic"
)

// maxRequestIDLen bounds honored client-sent IDs so a hostile header
// cannot balloon logs or responses.
const maxRequestIDLen = 128

var (
	reqSeq     atomic.Int64
	bootPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			// Degraded but unique-per-process: fall back to a fixed prefix;
			// the sequence still disambiguates within the process.
			return "pgs"
		}
		return hex.EncodeToString(b[:])
	}()
)

// requestID returns the request's trace ID: the client's X-Request-Id if
// it is well-formed, else a generated "<bootprefix>-<seq>".
func requestID(r *http.Request) string {
	if id := r.Header.Get("X-Request-Id"); validRequestID(id) {
		return id
	}
	return fmt.Sprintf("%s-%d", bootPrefix, reqSeq.Add(1))
}

// validRequestID accepts IDs up to maxRequestIDLen of unambiguous
// characters — letters, digits, '.', '_', '-' — rejecting anything that
// could smuggle header or log-format metacharacters.
func validRequestID(s string) bool {
	if s == "" || len(s) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '.', c == '_', c == '-':
		default:
			return false
		}
	}
	return true
}

// beginRequest resolves the request's ID and echoes it in the response
// header before any body is written. Every handler calls it first. A
// client's well-formed ID is echoed with the request header's own value
// slice, which neither side mutates, so the echo allocates nothing.
func beginRequest(w http.ResponseWriter, r *http.Request) string {
	if ids := r.Header["X-Request-Id"]; len(ids) == 1 && validRequestID(ids[0]) {
		w.Header()["X-Request-Id"] = ids
		return ids[0]
	}
	rid := requestID(r)
	w.Header().Set("X-Request-Id", rid)
	return rid
}
