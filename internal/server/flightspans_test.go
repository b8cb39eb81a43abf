package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"doacross/internal/dlx"
	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/pipeline"
)

// Loops that only one request of TestFlightRecordSpans asks for, so each
// compiles fresh and its compile probe can hold it.
const (
	pairLoop = `DO I = 1, N
S1: A[I] = A[I-1] + B[I]
S2: C[I] = A[I-2] * C[I-1]
ENDDO`
	abandonedLoop = `DO I = 1, N
S1: D[I] = D[I-3] + E[I]
ENDDO`
)

// flightLine is the part of one /debug/flightrecord line the span pin reads.
type flightLine struct {
	Kind      string             `json:"kind"`
	RequestID string             `json:"request_id"`
	Level     string             `json:"level"`
	Msg       string             `json:"msg"`
	Attrs     map[string]any     `json:"attrs"`
	Request   *obs.RequestRecord `json:"request"`
}

// readFlightRecord reads the ring through /debug/flightrecord, grouped by
// request ID in ring order; records without one are skipped.
func readFlightRecord(t *testing.T, h http.Handler) map[string][]flightLine {
	t.Helper()
	w := get(h, "/debug/flightrecord")
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/flightrecord = %d", w.Code)
	}
	out := map[string][]flightLine{}
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var l flightLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if l.RequestID != "" {
			out[l.RequestID] = append(out[l.RequestID], l)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// renderFlight renders the records of each request ID, in the order given:
// every log record's level, message and attributes (duration_ms masked),
// and every request record's outcome and span tree (kind, name, error and
// nesting; durations masked).
func renderFlight(b *strings.Builder, recs map[string][]flightLine, ids []string) {
	for _, id := range ids {
		for _, l := range recs[id] {
			switch l.Kind {
			case "log":
				keys := make([]string, 0, len(l.Attrs))
				for k := range l.Attrs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				fmt.Fprintf(b, "%s log %s %q", id, l.Level, l.Msg)
				for _, k := range keys {
					v := fmt.Sprint(l.Attrs[k])
					if k == "duration_ms" {
						v = "_"
					}
					fmt.Fprintf(b, " %s=%s", k, v)
				}
				b.WriteByte('\n')
			case "request":
				r := l.Request
				fmt.Fprintf(b, "%s request name=%s backend=%s status=%d coalesced=%v degraded=%v err=%q spans=%d\n",
					id, r.Name, r.Backend, r.Status, r.Coalesced, r.Degraded, r.Err, countSpans(r.Spans))
				renderSpans(b, r.Spans, 1)
			}
		}
	}
}

func renderSpans(b *strings.Builder, nodes []obs.SpanNode, depth int) {
	for _, n := range nodes {
		fmt.Fprintf(b, "%s%s %s", strings.Repeat("  ", depth), n.Kind, n.Name)
		if n.Err != "" {
			fmt.Fprintf(b, " err=%q", n.Err)
		}
		b.WriteByte('\n')
		renderSpans(b, n.Children, depth+1)
	}
}

func countSpans(nodes []obs.SpanNode) int {
	n := len(nodes)
	for _, c := range nodes {
		n += countSpans(c.Children)
	}
	return n
}

// requestSpans returns the span tree of the one request record of id.
func requestSpans(t *testing.T, recs map[string][]flightLine, id string) []obs.SpanNode {
	t.Helper()
	for _, l := range recs[id] {
		if l.Kind == "request" {
			return l.Request.Spans
		}
	}
	t.Fatalf("no request record for %s", id)
	return nil
}

// TestFlightRecordSpans pins what the flight recorder keeps of each kind of
// request: a fresh fig1 request; the same request again, a warm hit; a
// flight's leader and a follower coalesced onto it; a request degraded at
// schedule by a fault hook; and a leader whose client gave up while its
// flight was held at compile, answered 504. Each request's log records
// (duration masked) and its request record's span tree (durations masked)
// must match testdata/flightspans.golden, and no span may be dropped: a
// fresh request keeps the batch, request and compile spans, one span per
// compilation pass and three stage spans per machine, and a hit keeps the
// batch, request and compile spans and two stage spans per machine, on one
// machine and on the paper's four.
// Regenerate with: go test ./internal/server -run FlightRecordSpans -update
func TestFlightRecordSpans(t *testing.T) {
	hold := map[string]chan struct{}{"leader": make(chan struct{}), "abandoned": make(chan struct{})}
	entered := make(chan string, len(hold))
	hook := func(stage, name string) error {
		switch {
		case stage == "compile" && hold[name] != nil:
			entered <- name
			<-hold[name]
		case stage == "schedule" && name == "degraded":
			return errors.New("injected backend failure")
		}
		return nil
	}
	s := newTestServer(t, Config{FaultHook: hook, FlightDir: t.TempDir()})
	h := s.Handler()
	send := func(ctx context.Context, rid string, req ScheduleRequest) *httptest.ResponseRecorder {
		body, err := json.Marshal(req)
		if err != nil {
			t.Error(err)
			return nil
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)).WithContext(ctx)
		r.Header.Set("X-Request-Id", rid)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		return w
	}
	expect := func(w *httptest.ResponseRecorder, rid string, code int) {
		if w != nil && w.Code != code {
			t.Errorf("%s: status %d, want %d (%s)", rid, w.Code, code, w.Body)
		}
	}
	bg := context.Background()

	expect(send(bg, "fresh", ScheduleRequest{Name: "fig1", Source: fig1}), "fresh", http.StatusOK)
	expect(send(bg, "hit", ScheduleRequest{Name: "fig1", Source: fig1}), "hit", http.StatusOK)

	// A leader held at compile, then a follower that joins its flight.
	var wg sync.WaitGroup
	for _, rid := range []string{"leader", "follower"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			expect(send(bg, rid, ScheduleRequest{Name: rid, Source: pairLoop}), rid, http.StatusOK)
		}()
		if rid == "leader" {
			if got := <-entered; got != "leader" {
				t.Fatalf("compile probe held %q, want leader", got)
			}
		}
	}
	waitFor(t, "the follower to join the leader's flight", func() bool {
		flights, waiters := s.flights.Stats()
		return flights == 1 && waiters == 2
	})
	close(hold["leader"])
	wg.Wait()

	expect(send(bg, "degraded", ScheduleRequest{Name: "degraded", Source: fig1, Backend: "best"}), "degraded", http.StatusOK)

	// The client of a flight's only waiter gives up while the flight is held.
	ctx, cancel := context.WithCancel(bg)
	done := make(chan *httptest.ResponseRecorder)
	go func() { done <- send(ctx, "abandoned", ScheduleRequest{Name: "abandoned", Source: abandonedLoop}) }()
	if got := <-entered; got != "abandoned" {
		t.Fatalf("compile probe held %q, want abandoned", got)
	}
	cancel()
	expect(<-done, "abandoned", http.StatusGatewayTimeout)

	ids := []string{"fresh", "hit", "leader", "follower", "degraded", "abandoned"}
	recs := readFlightRecord(t, h)
	close(hold["abandoned"])
	waitFor(t, "the abandoned flight to end", func() bool {
		flights, _ := s.flights.Stats()
		return flights == 0
	})
	var b strings.Builder
	b.WriteString("# one machine\n")
	renderFlight(&b, recs, ids)

	passCount := len(passes.New(passes.Options{}).Names())
	checkCount := func(what string, spans []obs.SpanNode, want int) {
		t.Helper()
		if got := countSpans(spans); got != want {
			t.Errorf("%s: the request record holds %d spans, want %d", what, got, want)
		}
	}
	checkCount("fresh", requestSpans(t, recs, "fresh"), 3+passCount+3)
	checkCount("hit", requestSpans(t, recs, "hit"), 3+2)
	checkCount("leader", requestSpans(t, recs, "leader"), 3+passCount+3)

	// The paper's four machines: a fresh request and a hit.
	machines := dlx.PaperConfigs()
	s4 := newTestServer(t, Config{Pipeline: pipeline.Options{Machines: machines}})
	h4 := s4.Handler()
	for _, rid := range []string{"fresh4", "hit4"} {
		w, body := post(t, h4, ScheduleRequest{Name: "fig1", Source: fig1}, map[string]string{"X-Request-Id": rid})
		decodeOK(t, w, body)
	}
	recs4 := readFlightRecord(t, h4)
	b.WriteString("# four machines\n")
	renderFlight(&b, recs4, []string{"fresh4", "hit4"})
	checkCount("fresh on four machines", requestSpans(t, recs4, "fresh4"), 3+passCount+3*len(machines))
	checkCount("hit on four machines", requestSpans(t, recs4, "hit4"), 3+2*len(machines))

	got := b.String()
	path := filepath.Join("testdata", "flightspans.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("flight record drifted from %s.\n--- got ---\n%s", path, got)
	}
}
