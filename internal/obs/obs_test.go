package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestStartEndNilRecorder(t *testing.T) {
	var r *Recorder
	sp := r.Start(KindBatch, "batch", Span{})
	if sp.ID != 0 {
		t.Fatalf("nil recorder issued span ID %d", sp.ID)
	}
	r.End(&sp, errors.New("boom")) // must not panic
	if r.Snapshot() != nil || r.Len() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder should report empty state")
	}
}

func TestSpanHierarchyAndTracks(t *testing.T) {
	r := NewRecorder(64)
	batch := r.Start(KindBatch, "batch", Span{})
	req := r.Start(KindRequest, "loop0", batch)
	stage := r.Start(KindStage, "compile", req)
	pass := r.Start(KindPass, "parse", stage)
	r.End(&pass, nil)
	r.End(&stage, nil, B("cache_hit", false))
	r.End(&req, nil)
	r.End(&batch, nil, I("requests", 1))

	spans := r.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	tree := BuildTree(spans)
	path := tree.Path(pass.ID)
	want := []Kind{KindBatch, KindRequest, KindStage, KindPass}
	if len(path) != len(want) {
		t.Fatalf("path %v, want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path %v, want %v", path, want)
		}
	}
	// Request spans open their own display track; stage and pass spans
	// inherit it.
	if req.Track == batch.Track {
		t.Fatal("request should open its own track")
	}
	if stage.Track != req.Track || pass.Track != req.Track {
		t.Fatalf("stage/pass tracks %d/%d, want request track %d", stage.Track, pass.Track, req.Track)
	}
	if tree.String() == "" {
		t.Fatal("tree rendering is empty")
	}
}

func TestBuildTreeOrphanBecomesRoot(t *testing.T) {
	// A span whose parent was overwritten by ring wrap-around must still be
	// reachable from the root.
	spans := []Span{{ID: 7, Parent: 3, Kind: KindStage, Name: "schedule"}}
	tree := BuildTree(spans)
	roots := tree.Children[0]
	if len(roots) != 1 || roots[0].ID != 7 {
		t.Fatalf("orphan not promoted to root: %v", roots)
	}
	if got := tree.Path(7); len(got) != 1 || got[0] != KindStage {
		t.Fatalf("orphan path = %v", got)
	}
}

func TestRingWrapCountsDropped(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		sp := r.Start(KindPass, fmt.Sprintf("p%d", i), Span{})
		r.End(&sp, nil)
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d, want 4", r.Len())
	}
	if r.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", r.Dropped())
	}
	if got := len(r.Snapshot()); got != 4 {
		t.Fatalf("snapshot holds %d spans, want 4", got)
	}
}

func TestConcurrentRecordAndSnapshot(t *testing.T) {
	r := NewRecorder(128)
	var writers sync.WaitGroup
	for g := 0; g < 8; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < 500; i++ {
				sp := r.Start(KindPass, fmt.Sprintf("g%d-%d", g, i), Span{})
				r.End(&sp, nil, I("i", int64(i)))
			}
		}(g)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
				for _, s := range r.Snapshot() {
					if s.ID == 0 {
						t.Error("snapshot observed unpublished span")
						return
					}
				}
			}
		}
	}()
	writers.Wait()
	close(stop)
	reader.Wait()
	if r.Dropped() == 0 {
		t.Fatal("expected ring wrap with 4000 spans in a 128 ring")
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRecorder(16)
	batch := r.Start(KindBatch, "batch", Span{})
	req := r.Start(KindRequest, "loop0", batch)
	r.End(&req, errors.New("boom"), S("machine", "4-issue"))
	r.End(&batch, nil)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  uint64         `json:"pid"`
			TID  uint64         `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	var sawRequest bool
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.TS < 0 || ev.Dur < 0 {
			t.Fatalf("event %q has negative ts/dur", ev.Name)
		}
		if ev.Cat == "request" {
			sawRequest = true
			if ev.Args["machine"] != "4-issue" || ev.Args["error"] != "boom" {
				t.Fatalf("request args = %v", ev.Args)
			}
		}
	}
	if !sawRequest {
		t.Fatal("no request event exported")
	}
}

func TestJSONLExport(t *testing.T) {
	r := NewRecorder(16)
	sp := r.Start(KindPass, "parse", Span{})
	r.End(&sp, errors.New("boom"), I("n", 3))
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 1 {
		t.Fatalf("got %d lines, want 1", len(lines))
	}
	var row map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &row); err != nil {
		t.Fatal(err)
	}
	if row["kind"] != "pass" || row["name"] != "parse" || row["err"] != "boom" {
		t.Fatalf("row = %v", row)
	}
	attrs, _ := row["attrs"].(map[string]any)
	if attrs["n"] != float64(3) {
		t.Fatalf("attrs = %v", row["attrs"])
	}
	if _, dup := attrs["error"]; dup {
		t.Fatal("error duplicated into attrs in JSONL shape")
	}
}

func TestServerEndpoints(t *testing.T) {
	r := NewRecorder(16)
	sp := r.Start(KindBatch, "batch", Span{})
	r.End(&sp, nil)
	srv := &Server{
		Recorder: r,
		Metrics:  func(w io.Writer) { fmt.Fprintln(w, "# TYPE doacross_test counter") },
		Stats:    func() any { return map[string]int{"requests": 1} },
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func(path string) (int, string, http.Header) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return resp.StatusCode, string(b), resp.Header
	}

	if code, body, _ := get("/healthz"); code != http.StatusOK || !strings.Contains(body, `"status":"ok"`) {
		t.Fatalf("/healthz: %d %q", code, body)
	}
	code, body, hdr := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "doacross_test") {
		t.Fatalf("/metrics: %d %q", code, body)
	}
	if ct := hdr.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("/metrics Content-Type = %q", ct)
	}
	if code, body, _ := get("/stats"); code != http.StatusOK || !strings.Contains(body, `"requests": 1`) {
		t.Fatalf("/stats: %d %q", code, body)
	}
	if code, body, _ := get("/trace"); code != http.StatusOK || !strings.Contains(body, "traceEvents") {
		t.Fatalf("/trace: %d %q", code, body)
	}
	if code, body, _ := get("/trace.jsonl"); code != http.StatusOK || !strings.Contains(body, `"kind":"batch"`) {
		t.Fatalf("/trace.jsonl: %d %q", code, body)
	}
	if code, _, _ := get("/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline: %d", code)
	}
}

func TestServerNilHooks404(t *testing.T) {
	srv := &Server{}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, path := range []string{"/metrics", "/stats", "/trace", "/trace.jsonl"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %d, want 404", path, resp.StatusCode)
		}
	}
}

func TestServerStartClose(t *testing.T) {
	srv := &Server{Recorder: NewRecorder(8)}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr.String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz over Start: %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotSizedByContent pins what a snapshot of a nearly empty ring
// allocates: scheduld gives every flight a 512-slot recorder that ends up
// holding about a dozen spans, so a snapshot sized by the ring's capacity
// (64 KiB of spans) instead of its content dominated each request's
// allocated bytes.
func TestSnapshotSizedByContent(t *testing.T) {
	r := NewRecorder(512)
	for i := 0; i < 12; i++ {
		sp := r.Start(KindStage, "stage", Span{})
		r.End(&sp, nil)
	}
	if n := len(r.Snapshot()); n != 12 {
		t.Fatalf("snapshot holds %d spans, want 12", n)
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		r.Snapshot()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 4<<10 {
		t.Errorf("snapshot of 12 spans in a 512-slot ring allocates %d bytes, want under 4 KiB", per)
	}
}
