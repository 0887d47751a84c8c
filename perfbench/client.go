package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"time"

	"lia/serve"
)

// requestTimeout bounds every generator request; a request that exceeds it
// counts as failed.
const requestTimeout = 10 * time.Second

// newClient returns an HTTP client that keeps exactly one connection to the
// server: the generator's writer and reader each own one.
func newClient() *http.Client {
	return &http.Client{
		Timeout: requestTimeout,
		Transport: &http.Transport{
			MaxIdleConnsPerHost: 1,
			MaxConnsPerHost:     1,
			DisableCompression:  true,
		},
	}
}

// do sends one request and reads the whole response into buf.
func do(ctx context.Context, c *http.Client, method, url string, body []byte, trace *spanRef, buf *bytes.Buffer) (int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if trace != nil {
		req.Header.Set(traceHeader, formatRef(*trace))
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return resp.StatusCode, err
	}
	return resp.StatusCode, nil
}

// jsonInt extracts the integer value of the first top-level-looking
// "key": field without decoding the whole body; the timed loop reads only
// epochs and counts, and full decoding happens in the correctness check.
func jsonInt(body []byte, key string) (int, error) {
	pat := []byte(`"` + key + `":`)
	i := bytes.Index(body, pat)
	if i < 0 {
		return 0, fmt.Errorf("no %q in response", key)
	}
	rest := body[i+len(pat):]
	j := 0
	for j < len(rest) && (rest[j] == '-' || (rest[j] >= '0' && rest[j] <= '9')) {
		j++
	}
	return strconv.Atoi(string(rest[:j]))
}

// postIngest posts one ingest body outside the timed window and returns the
// engine's snapshot count after it.
func postIngest(ctx context.Context, c *http.Client, base string, body []byte, trace *spanRef) (int, error) {
	var buf bytes.Buffer
	code, err := do(ctx, c, http.MethodPost, base+"/v1/snapshots", body, trace, &buf)
	if err != nil {
		return 0, err
	}
	if code != http.StatusOK {
		return 0, fmt.Errorf("ingest answered %d: %s", code, bytes.TrimSpace(buf.Bytes()))
	}
	return jsonInt(buf.Bytes(), "snapshots")
}

// getLinks fetches and fully decodes /v1/links (out may be nil).
func getLinks(ctx context.Context, c *http.Client, base string, out *serve.LinksResponse) (int, []byte, error) {
	var buf bytes.Buffer
	code, err := do(ctx, c, http.MethodGet, base+"/v1/links", nil, nil, &buf)
	if err != nil || code != http.StatusOK || out == nil {
		return code, buf.Bytes(), err
	}
	return code, buf.Bytes(), json.Unmarshal(buf.Bytes(), out)
}

// postInfer posts one infer body and decodes the answer.
func postInfer(ctx context.Context, c *http.Client, base string, body []byte, out *serve.InferResponse) error {
	var buf bytes.Buffer
	code, err := do(ctx, c, http.MethodPost, base+"/v1/infer", body, nil, &buf)
	if err != nil {
		return err
	}
	if code != http.StatusOK {
		return fmt.Errorf("infer answered %d: %s", code, bytes.TrimSpace(buf.Bytes()))
	}
	return json.Unmarshal(buf.Bytes(), out)
}

// bodies are the pre-encoded request bodies of a run.
type bodies struct {
	ingest [][]byte // one per pool batch, cycled by the writer
	infer  [][]byte // one per pool tick, cycled by the reader
	held   [][]byte // held-out ticks, for the accuracy check
}

func buildBodies(s spec, in *inputs) (*bodies, error) {
	b := &bodies{}
	for i := 0; i+s.batch <= len(in.Pool); i += s.batch {
		var req serve.IngestRequest
		for _, f := range in.Pool[i : i+s.batch] {
			req.Snapshots = append(req.Snapshots, serve.SnapshotPayload{Frac: f, Probes: probes})
		}
		raw, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		b.ingest = append(b.ingest, raw)
	}
	enc := func(fracs [][]float64) ([][]byte, error) {
		var out [][]byte
		for _, f := range fracs {
			raw, err := json.Marshal(serve.SnapshotPayload{Frac: f, Probes: probes})
			if err != nil {
				return nil, err
			}
			out = append(out, raw)
		}
		return out, nil
	}
	var err error
	if b.infer, err = enc(in.Pool); err != nil {
		return nil, err
	}
	if b.held, err = enc(in.Held); err != nil {
		return nil, err
	}
	return b, nil
}
