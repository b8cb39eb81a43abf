package obs

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingWrap(t *testing.T) {
	fr := NewFlightRecorder(4)
	for i := 0; i < 6; i++ {
		fr.Add(FlightRecord{Kind: "log", Msg: fmt.Sprintf("m%d", i)})
	}
	if fr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", fr.Len())
	}
	snap := fr.Snapshot()
	var msgs []string
	for _, r := range snap {
		msgs = append(msgs, r.Msg)
	}
	if got, want := strings.Join(msgs, " "), "m2 m3 m4 m5"; got != want {
		t.Errorf("snapshot order = %q, want %q (oldest first, oldest evicted)", got, want)
	}
	for _, r := range snap {
		if r.Time.IsZero() {
			t.Error("Add did not stamp a zero Time")
		}
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var fr *FlightRecorder
	fr.Add(FlightRecord{Kind: "log"}) // must not panic
}

func TestFlightRecorderWriteJSONL(t *testing.T) {
	fr := NewFlightRecorder(8)
	fr.Add(FlightRecord{Kind: "log", RequestID: "req-1", Msg: "hello"})
	fr.Add(FlightRecord{Kind: "request", RequestID: "req-1", Request: &RequestRecord{Status: 200}})
	var buf bytes.Buffer
	if err := fr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []FlightRecord
	for sc.Scan() {
		var r FlightRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d: %v", len(lines), err)
		}
		lines = append(lines, r)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	if lines[0].Msg != "hello" || lines[0].RequestID != "req-1" {
		t.Errorf("first line = %+v", lines[0])
	}
	if lines[1].Kind != "request" || lines[1].Request == nil || lines[1].Request.Status != 200 {
		t.Errorf("second line = %+v", lines[1])
	}
}

// TestFlightLoggerRecordsBelowInnerLevel is the black-box property: the
// ring keeps debug-grade records even when the live handler's level filters
// them out of the visible log.
func TestFlightLoggerRecordsBelowInnerLevel(t *testing.T) {
	fr := NewFlightRecorder(8)
	var out bytes.Buffer
	inner := slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.LevelWarn})
	log := FlightLogger(fr, inner)

	log.Debug("quiet decision", "request_id", "req-9", "queue", 3)
	log.Warn("loud decision", "request_id", "req-9")

	if !strings.Contains(out.String(), "loud decision") {
		t.Error("warn record did not reach the inner handler")
	}
	if strings.Contains(out.String(), "quiet decision") {
		t.Error("debug record leaked past the inner handler's level")
	}
	snap := fr.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("flight ring has %d records, want 2 (records regardless of level)", len(snap))
	}
	if snap[0].Msg != "quiet decision" || snap[0].Level != "DEBUG" {
		t.Errorf("first ring record = %+v", snap[0])
	}
	if snap[0].RequestID != "req-9" {
		t.Errorf("request_id attr not folded into RequestID: %+v", snap[0])
	}
	if _, ok := snap[0].Attrs["request_id"]; ok {
		t.Error("request_id duplicated in Attrs")
	}
	if got := snap[0].Attrs["queue"]; got != int64(3) && got != 3 {
		t.Errorf("queue attr = %v (%T)", got, got)
	}
}

func TestFlightLoggerNilInner(t *testing.T) {
	fr := NewFlightRecorder(4)
	log := FlightLogger(fr, nil)
	log.Info("only the ring", "request_id", "r")
	if fr.Len() != 1 {
		t.Fatalf("ring has %d records, want 1", fr.Len())
	}
}

func TestFlightLoggerWithAttrsAndGroup(t *testing.T) {
	fr := NewFlightRecorder(8)
	log := FlightLogger(fr, nil).With("request_id", "req-w").WithGroup("srv")
	log.Info("grouped", "k", "v")
	snap := fr.Snapshot()
	if len(snap) != 1 {
		t.Fatalf("ring has %d records", len(snap))
	}
	r := snap[0]
	if r.RequestID != "req-w" {
		t.Errorf("RequestID = %q, want req-w (With attr folded)", r.RequestID)
	}
	if r.Attrs["srv.k"] != "v" {
		t.Errorf("grouped attr = %v, want srv.k=v", r.Attrs)
	}
}

func TestFlightRecorderConcurrent(t *testing.T) {
	fr := NewFlightRecorder(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				fr.Add(FlightRecord{Kind: "log", Msg: fmt.Sprintf("g%d-%d", g, i)})
				if i%10 == 0 {
					_ = fr.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if fr.Len() != 64 {
		t.Fatalf("Len = %d, want 64", fr.Len())
	}
}

// TestFlightRecordBuiltWhenRead: the ring keeps a request record's Trace and
// a log record's attributes raw, and a reader gets them built into Spans
// and Attrs, spans recorded after the record was added included, with the
// JSONL of records built eagerly. The ring's own record is left as added.
func TestFlightRecordBuiltWhenRead(t *testing.T) {
	ts := time.Date(1997, 4, 1, 0, 0, 0, 0, time.UTC)
	spans := NewRecorder(8)
	req := &RequestRecord{Name: "fig1", Status: 200, Trace: spans}
	lazy := NewFlightRecorder(8)
	lazy.Add(FlightRecord{Time: ts, Kind: "request", RequestID: "q", Request: req})
	b := spans.Start(KindBatch, "batch", Span{})
	st := spans.Start(KindStage, "compile", b)
	spans.End(&st, errors.New("boom"))
	spans.End(&b, nil)
	FlightLogger(lazy, nil).LogAttrs(context.Background(), slog.LevelInfo, "request served",
		slog.String("request_id", "q"), slog.String("loop", "fig1"), slog.Int("n", 1000),
		slog.Bool("coalesced", false), slog.Float64("duration_ms", 0.25), slog.Duration("wait", time.Second))

	snap := lazy.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("ring holds %d records, want 2", len(snap))
	}
	eager := NewFlightRecorder(8)
	eager.Add(FlightRecord{Time: ts, Kind: "request", RequestID: "q",
		Request: &RequestRecord{Name: "fig1", Status: 200, Spans: SpanNodes(spans.Snapshot())}})
	eager.Add(FlightRecord{Time: snap[1].Time, Kind: "log", Level: "INFO", Msg: "request served", RequestID: "q",
		Attrs: map[string]any{"loop": "fig1", "n": int64(1000), "coalesced": false, "duration_ms": 0.25, "wait": time.Second}})
	var got, want bytes.Buffer
	if err := lazy.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	if err := eager.WriteJSONL(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Errorf("JSONL built when read:\n%s\nbuilt eagerly:\n%s", &got, &want)
	}
	if !strings.Contains(got.String(), `"err":"boom"`) {
		t.Errorf("the span recorded after Add is missing:\n%s", &got)
	}
	if req.Spans != nil || req.Trace != spans || snap[0].Request == req {
		t.Error("reading the ring changed the record it holds")
	}
}

// TestFlightRecorderGrowsThenWraps: a recorder holds nothing until it
// records, grows to its bound, then keeps the newest records oldest
// first, at a bound that is not a power of two and across several wraps.
func TestFlightRecorderGrowsThenWraps(t *testing.T) {
	fr := NewFlightRecorder(3)
	if fr.Len() != 0 || len(fr.Snapshot()) != 0 {
		t.Fatalf("a new recorder holds %d records", fr.Len())
	}
	for i := 0; i < 8; i++ {
		fr.Add(FlightRecord{Kind: "log", Msg: fmt.Sprintf("m%d", i)})
		if want := min(i+1, 3); fr.Len() != want {
			t.Fatalf("after %d records Len = %d, want %d", i+1, fr.Len(), want)
		}
	}
	var msgs []string
	for _, r := range fr.Snapshot() {
		msgs = append(msgs, r.Msg)
	}
	if got, want := strings.Join(msgs, " "), "m5 m6 m7"; got != want {
		t.Errorf("snapshot = %q, want %q", got, want)
	}
}
