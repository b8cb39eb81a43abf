package obs

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"sync"
	"time"
)

// FlightRecord is one entry of the flight recorder's ring: a structured log
// record, a completed request with its span tree, or a dump trigger marker.
type FlightRecord struct {
	Time time.Time `json:"time"`
	// Kind is "log", "request" or "trigger".
	Kind string `json:"kind"`
	// RequestID correlates the record with a request (X-Request-Id).
	RequestID string         `json:"request_id,omitempty"`
	Level     string         `json:"level,omitempty"`
	Msg       string         `json:"msg,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`
	Request   *RequestRecord `json:"request,omitempty"`

	// attrs are a log record's attributes as they were logged; Snapshot
	// folds them into Attrs.
	attrs []slog.Attr
}

// RequestRecord summarizes one served request for the flight recorder.
type RequestRecord struct {
	Name       string     `json:"name,omitempty"`
	Backend    string     `json:"backend,omitempty"`
	Status     int        `json:"status,omitempty"`
	DurationMS float64    `json:"duration_ms"`
	Coalesced  bool       `json:"coalesced,omitempty"`
	Degraded   bool       `json:"degraded,omitempty"`
	Err        string     `json:"err,omitempty"`
	Spans      []SpanNode `json:"spans,omitempty"`
	// Trace, when non-nil, holds the request's spans: Snapshot folds them
	// into Spans, so a span tree is built only when the ring is read.
	Trace *Recorder `json:"-"`
}

// SpanNode is one span of a request's trace tree, nested.
type SpanNode struct {
	Kind     string     `json:"kind"`
	Name     string     `json:"name"`
	DurUS    int64      `json:"dur_us"`
	Err      string     `json:"err,omitempty"`
	Children []SpanNode `json:"children,omitempty"`
}

// SpanNodes folds a span snapshot (Recorder.Snapshot order) into nested
// trees, roots first.
func SpanNodes(spans []Span) []SpanNode {
	t := BuildTree(spans)
	var build func(id SpanID) []SpanNode
	build = func(id SpanID) []SpanNode {
		kids := t.Children[id]
		if len(kids) == 0 {
			return nil
		}
		out := make([]SpanNode, 0, len(kids))
		for _, c := range kids {
			out = append(out, SpanNode{
				Kind:     c.Kind.String(),
				Name:     c.Name,
				DurUS:    c.Duration.Microseconds(),
				Err:      c.Err,
				Children: build(c.ID),
			})
		}
		return out
	}
	return build(0)
}

// FlightRecorder is the always-on black box: a bounded mutex-guarded ring of
// recent FlightRecords (request span trees plus slog records), cheap enough
// to keep hot and dumped as JSONL when something goes wrong — panic,
// deadline breach, breaker-open, SIGQUIT — or on demand from
// /debug/flightrecord.
type FlightRecorder struct {
	mu sync.Mutex
	// buf grows to size records as they arrive, so a recorder costs nothing
	// until it records, and then wraps: next is the oldest record's slot
	// (0 until buf is full).
	buf  []FlightRecord
	size int
	next int
}

// NewFlightRecorder returns a recorder keeping the last n records (n <= 0:
// 256).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 256
	}
	return &FlightRecorder{size: n}
}

// Add appends a record, evicting the oldest when full. A zero Time is
// stamped with the current time.
func (f *FlightRecorder) Add(r FlightRecord) {
	if f == nil {
		return
	}
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	f.mu.Lock()
	if len(f.buf) < f.size {
		f.buf = append(f.buf, r)
	} else {
		f.buf[f.next] = r
		f.next = (f.next + 1) % f.size
	}
	f.mu.Unlock()
}

// Len reports the number of retained records.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.buf)
}

// Snapshot copies the retained records, oldest first, with every log
// record's Attrs and every request record's Spans built.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	f.mu.Lock()
	out := make([]FlightRecord, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	f.mu.Unlock()
	for i := range out {
		out[i].fold()
	}
	return out
}

// fold builds the parts of a copied record that the ring keeps raw: a log
// record's Attrs map and a request record's span tree.
func (r *FlightRecord) fold() {
	if len(r.attrs) > 0 {
		m := make(map[string]any, len(r.attrs))
		for _, a := range r.attrs {
			m[a.Key] = a.Value.Any()
		}
		r.Attrs, r.attrs = m, nil
	}
	if q := r.Request; q != nil && q.Trace != nil {
		c := *q
		c.Spans, c.Trace = SpanNodes(q.Trace.Snapshot()), nil
		r.Request = &c
	}
}

// WriteJSONL dumps the ring as JSONL, one record per line, oldest first.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range f.Snapshot() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// flightHandler tees every slog record into the flight recorder — before
// and regardless of the inner handler's level filtering, so the black box
// keeps debug-grade context even when the live log level is higher — then
// forwards to the inner handler when it is enabled.
type flightHandler struct {
	fr    *FlightRecorder
	inner slog.Handler
	// attrs carries WithAttrs attachments with their keys already qualified
	// by the group that was open when they were attached (slog semantics: a
	// group prefixes only attrs added after it opens).
	attrs []slog.Attr
	group string
}

// FlightLogger returns a logger that records into fr and forwards to inner
// (nil inner: records only).
func FlightLogger(fr *FlightRecorder, inner slog.Handler) *slog.Logger {
	return slog.New(&flightHandler{fr: fr, inner: inner})
}

func (h *flightHandler) Enabled(context.Context, slog.Level) bool { return true }

// Handle keeps the record's attributes, resolved and with their keys
// qualified, as they were logged; the ring's readers get them as a map (see
// Snapshot). A "request_id" attribute becomes the record's RequestID.
func (h *flightHandler) Handle(ctx context.Context, r slog.Record) error {
	rec := FlightRecord{Time: r.Time, Kind: "log", Level: r.Level.String(), Msg: r.Message}
	attrs := make([]slog.Attr, 0, r.NumAttrs()+len(h.attrs))
	keep := func(a slog.Attr) {
		a.Value = a.Value.Resolve()
		if a.Key != "request_id" {
			attrs = append(attrs, a)
		} else if a.Value.Kind() == slog.KindString {
			rec.RequestID = a.Value.String()
		} else {
			rec.RequestID = ""
		}
	}
	for _, a := range h.attrs {
		keep(a)
	}
	r.Attrs(func(a slog.Attr) bool {
		if h.group != "" {
			a.Key = h.group + "." + a.Key
		}
		keep(a)
		return true
	})
	if len(attrs) > 0 {
		rec.attrs = attrs
	}
	h.fr.Add(rec)
	if h.inner != nil && h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

func (h *flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	qual := make([]slog.Attr, len(attrs))
	for i, a := range attrs {
		if h.group != "" {
			a.Key = h.group + "." + a.Key
		}
		qual[i] = a
	}
	nh.attrs = append(append([]slog.Attr(nil), h.attrs...), qual...)
	if h.inner != nil {
		nh.inner = h.inner.WithAttrs(attrs)
	}
	return &nh
}

func (h *flightHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := *h
	if nh.group != "" {
		nh.group += "." + name
	} else {
		nh.group = name
	}
	if h.inner != nil {
		nh.inner = h.inner.WithGroup(name)
	}
	return &nh
}
