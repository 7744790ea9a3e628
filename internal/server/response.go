package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"ldgemm/internal/bufpool"
)

// Response is a fully materialized answer: status, body, and the
// cluster degradation marker. Both tiers build every reply through it —
// a node from what it computed, a coordinator from what it merged,
// relayed, or replayed out of its result cache — so a body reads the
// same whichever tier produced it.
type Response struct {
	Status int
	Body   []byte
	// Failed names the replica groups a coordinator's gather lost (the
	// X-LD-Shards-Failed header); "" on every complete answer.
	Failed string
	// pooled marks a Body taken from bufpool.Bytes: a float payload's,
	// which the node mux hands back once it has written it (release). A
	// coordinator builds its float answers, which may be cached or shared
	// by coalesced callers, through OKShared, so they never are.
	pooled bool
	// raw marks a raw float payload (wire.go), sent as OctetStream.
	raw bool
}

// OK marshals a 200 payload: a float payload through the one float
// encoder (wire.go), into a buffer from bufpool.Bytes, anything else
// through encoding/json. The payload is marshalled before any byte is
// written, so an encoding failure still produces a well-formed JSON error
// instead of a truncated body behind a 200 already on the wire.
func OK(v any) *Response {
	var b []byte
	var err error
	p, float := v.(FloatPayload)
	if float {
		b, err = encodeFloatPayload(bufpool.Bytes.Get(payloadCap(p))[:0], p)
	} else if b, err = json.Marshal(v); err == nil {
		b = append(b, '\n')
	}
	resp := &Response{Status: http.StatusOK, Body: b, pooled: float}
	if err != nil {
		resp.release()
		return Errorf(http.StatusInternalServerError, "encoding response: %v", err)
	}
	return resp
}

// okRaw is OK for a client that asked for the raw spelling of a float
// payload: its head and its floats' bits, into a buffer from bufpool.Bytes.
func okRaw(p FloatPayload) *Response {
	b, err := appendRaw(bufpool.Bytes.Get(128 + 8*len(p.values()))[:0], p)
	resp := &Response{Status: http.StatusOK, Body: b, pooled: true, raw: true}
	if err != nil {
		resp.release()
		return Errorf(http.StatusInternalServerError, "encoding response: %v", err)
	}
	return resp
}

// OKShared is a coordinator's 200 for the float payload it merged: spelled
// once, by the encoder a node runs, into scratch from bufpool.Bytes, then
// copied into a body of exactly its length that no pool owns, since the
// result cache and coalesced callers may share it.
func OKShared(p FloatPayload) *Response {
	scratch := bufpool.Bytes.Get(payloadCap(p))
	defer bufpool.Bytes.Put(scratch)
	b, err := encodeFloatPayload(scratch[:0], p)
	if err != nil {
		return Errorf(http.StatusInternalServerError, "encoding response: %v", err)
	}
	return &Response{Status: http.StatusOK, Body: append(make([]byte, 0, len(b)), b...)}
}

// Errorf builds the JSON error payload every non-200 answer carries.
func Errorf(status int, format string, args ...any) *Response {
	b, _ := json.Marshal(map[string]string{"error": fmt.Sprintf(format, args...)})
	return &Response{Status: status, Body: append(b, '\n')}
}

// Write sends the response to one client. The body is whole, so its length
// is declared and net/http does not fall back to chunked transfer for
// anything over its 2 KiB buffer.
func (resp *Response) Write(w http.ResponseWriter) {
	if resp.raw {
		w.Header().Set("Content-Type", OctetStream)
	} else {
		w.Header().Set("Content-Type", "application/json")
	}
	w.Header().Set("Content-Length", strconv.Itoa(len(resp.Body)))
	if resp.Failed != "" {
		w.Header().Set("X-LD-Shards-Failed", resp.Failed)
	}
	if resp.Status != http.StatusOK {
		w.WriteHeader(resp.Status)
	}
	w.Write(resp.Body)
}

// release hands a pooled Body back to bufpool.Bytes, after its last read;
// any other Response is left as it is.
func (resp *Response) release() {
	if resp.pooled {
		bufpool.Bytes.Put(resp.Body)
		resp.Body, resp.pooled = nil, false
	}
}

func writeJSON(w http.ResponseWriter, v any) { OK(v).Write(w) }

func httpError(w http.ResponseWriter, code int, format string, args ...any) {
	Errorf(code, format, args...).Write(w)
}

// handleFallback is the mux catch-all, keeping even router misses on the
// JSON error contract: unknown paths get a JSON 404 and non-GET methods a
// JSON 405, so coordinator-side response classification never needs to
// parse plain-text bodies.
func handleFallback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	httpError(w, http.StatusNotFound, "no such endpoint %s", r.URL.Path)
}

// postOnly answers non-POST requests to a POST-only path.
func postOnly(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Allow", http.MethodPost)
	httpError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
}
