package obs

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestServerStartTimeouts: the listener Start builds bounds how long a
// client may take to send its request headers and how long an idle
// keep-alive connection is kept, so neither holds a connection forever.
func TestServerStartTimeouts(t *testing.T) {
	srv := &Server{}
	if _, err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.srv.ReadHeaderTimeout <= 0 || srv.srv.IdleTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, IdleTimeout = %v, want both positive",
			srv.srv.ReadHeaderTimeout, srv.srv.IdleTimeout)
	}
}

// TestServerHealthHook: the Health hook adds its fields to /healthz and may
// overwrite the status; without it the body is status and uptime only.
func TestServerHealthHook(t *testing.T) {
	healthz := func(srv *Server) map[string]any {
		t.Helper()
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/healthz", nil))
		var body map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil {
			t.Fatal(err)
		}
		return body
	}
	if body := healthz(&Server{}); len(body) != 2 || body["status"] != "ok" {
		t.Errorf("/healthz without a hook = %v, want status and uptime_seconds", body)
	}
	body := healthz(&Server{Health: func(f map[string]any) {
		f["status"] = "draining"
		f["queued"] = 3
	}})
	if body["status"] != "draining" || body["queued"] != float64(3) || body["uptime_seconds"] == nil {
		t.Errorf("/healthz with a hook = %v", body)
	}
}

// TestServerRoutes: Handler returns the same mux every time, so routes an
// embedder mounts on it are served next to the admin ones, and paths that
// are neither answer 404.
func TestServerRoutes(t *testing.T) {
	srv := &Server{}
	srv.Handler().HandleFunc("/extra", func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	})
	for path, want := range map[string]int{
		"/extra":                 http.StatusTeapot,
		"/healthz":               http.StatusOK,
		"/debug/pprof/":          http.StatusOK,
		"/debug/pprof/heap":      http.StatusOK,
		"/debug/pprof/symbol":    http.StatusOK,
		"/debug/pprof":           http.StatusMovedPermanently,
		"/":                      http.StatusNotFound,
		"/healthz/x":             http.StatusNotFound,
		"/debug/pprof/no-such-x": http.StatusNotFound,
	} {
		w := httptest.NewRecorder()
		srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		if w.Code != want {
			t.Errorf("GET %s = %d, want %d", path, w.Code, want)
		}
	}
}

// TestProm pins the exposition writer's line shapes: HELP and TYPE lines,
// unlabelled and labelled integer samples with Go-quoted label values, and
// float samples in their shortest round-trip form.
func TestProm(t *testing.T) {
	var buf bytes.Buffer
	p := Prom{W: &buf}
	p.Counter("a_total", "A things.", 3)
	p.Gauge("b", "B now.", -1)
	p.Family("c_seconds", "histogram", "C latency.")
	p.Int("c_seconds_bucket", 7, "stage", `odd"name\`, "le", "+Inf")
	p.Float("c_seconds_sum", 0.050005, "stage", "x")
	p.Float("d", 1e-05)
	const want = `# HELP a_total A things.
# TYPE a_total counter
a_total 3
# HELP b B now.
# TYPE b gauge
b -1
# HELP c_seconds C latency.
# TYPE c_seconds histogram
c_seconds_bucket{stage="odd\"name\\",le="+Inf"} 7
c_seconds_sum{stage="x"} 0.050005
d 1e-05
`
	if got := buf.String(); got != want {
		t.Errorf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
