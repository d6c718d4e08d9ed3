package main

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPMuxServesPprof pins that the -http endpoint carries the
// profiling handlers beside /metrics and /debug/vars.
func TestHTTPMuxServesPprof(t *testing.T) {
	metrics := http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "net_requests_total 0\n")
	})
	srv := httptest.NewServer(httpMux(metrics))
	defer srv.Close()

	for _, tc := range []struct{ path, want string }{
		{"/debug/pprof/", "goroutine"},
		{"/debug/pprof/goroutine?debug=1", "goroutine profile"},
		{"/debug/pprof/cmdline", ""},
		{"/debug/pprof/symbol", "num_symbols"},
		{"/debug/pprof/profile?seconds=1", ""},
		{"/debug/pprof/trace?seconds=0.1", ""},
		{"/debug/vars", "memstats"},
		{"/metrics", "net_requests_total"},
	} {
		resp, err := http.Get(srv.URL + tc.path)
		if err != nil {
			t.Fatalf("GET %s: %v", tc.path, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("GET %s: reading body: %v", tc.path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", tc.path, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), tc.want) {
			t.Fatalf("GET %s: body lacks %q", tc.path, tc.want)
		}
	}
}
