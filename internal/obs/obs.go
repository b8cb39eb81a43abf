// Package obs is the observability layer of the batch scheduling service:
// span-based tracing with a bounded lock-free ring buffer, exporters for the
// Chrome trace_event format (loadable in Perfetto) and a structured JSONL
// event log, and an opt-in HTTP admin surface serving metrics, stats
// snapshots, trace downloads and pprof.
//
// Spans form a batch → request → stage → pass hierarchy: the pipeline starts
// a batch span, one request span per loop, one stage span per pipeline stage
// (compile, schedule, simulate) and the pass manager one pass span per
// compilation pass. Each span carries its parent's ID, so the tree is
// reconstructible from any snapshot.
//
// All hot-path methods are safe for concurrent use and are no-ops on a nil
// *Recorder: a pipeline run with tracing disabled pays exactly one nil check
// per would-be span.
package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// Kind classifies a span's level in the batch → request → stage → pass
// hierarchy.
type Kind uint8

// The span kinds, outermost first.
const (
	KindBatch Kind = iota
	KindRequest
	KindStage
	KindPass
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBatch:
		return "batch"
	case KindRequest:
		return "request"
	case KindStage:
		return "stage"
	case KindPass:
		return "pass"
	}
	return "span"
}

// SpanID identifies a span within one Recorder; 0 means "no span" (the
// parent of a root span, or a span started on a nil Recorder).
type SpanID uint64

// Attr is one span attribute: a key with either an integer or a string
// value (Str wins when non-empty).
type Attr struct {
	Key string
	Int int64
	Str string
}

// I builds an integer attribute.
func I(key string, v int64) Attr { return Attr{Key: key, Int: v} }

// S builds a string attribute.
func S(key, v string) Attr { return Attr{Key: key, Str: v} }

// B builds a boolean attribute (rendered as 0/1).
func B(key string, v bool) Attr {
	if v {
		return Attr{Key: key, Int: 1}
	}
	return Attr{Key: key, Int: 0}
}

// Span is one recorded operation. A Span is created by Recorder.Start,
// carried by value while the operation runs, and published immutably by
// Recorder.End — snapshots only ever observe finished spans.
type Span struct {
	// ID identifies the span; Parent is the enclosing span (0 for roots).
	ID, Parent SpanID
	// Track groups the span for timeline display: each request span opens
	// its own track and stage/pass spans inherit it, so concurrent requests
	// render as parallel lanes whose spans nest by time containment.
	Track uint64
	// Kind is the hierarchy level.
	Kind Kind
	// Name labels the span (request name, stage or pass name).
	Name string
	// Start and Duration delimit the operation.
	Start    time.Time
	Duration time.Duration
	// Err is the failure message ("" on success).
	Err string
	// Attrs are the span's attributes (recorded at End).
	Attrs []Attr
}

// Recorder records finished spans into a bounded lock-free ring buffer:
// writers claim a slot with one atomic add and publish the span with one
// atomic pointer store, so recording never blocks and never allocates beyond
// the span itself. When the ring wraps, the oldest spans are overwritten and
// counted as dropped. A nil *Recorder is valid and disables tracing.
type Recorder struct {
	epoch time.Time
	ids   atomic.Uint64
	next  atomic.Uint64
	slots []atomic.Pointer[Span]
	mask  uint64
}

// DefaultCapacity is the ring size used when NewRecorder is given n <= 0.
const DefaultCapacity = 8192

// NewRecorder returns a recorder whose ring holds at least n spans (rounded
// up to a power of two; n <= 0 means DefaultCapacity).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultCapacity
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &Recorder{
		epoch: time.Now(),
		slots: make([]atomic.Pointer[Span], size),
		mask:  uint64(size - 1),
	}
}

// Epoch is the recorder's time base (trace timestamps are relative to it).
func (r *Recorder) Epoch() time.Time {
	if r == nil {
		return time.Time{}
	}
	return r.epoch
}

// Start opens a span under parent. On a nil recorder it returns the zero
// Span, which End ignores — the disabled path is a single nil check.
func (r *Recorder) Start(kind Kind, name string, parent Span) Span {
	if r == nil {
		return Span{}
	}
	s := Span{
		ID:     SpanID(r.ids.Add(1)),
		Parent: parent.ID,
		Track:  parent.Track,
		Kind:   kind,
		Name:   name,
		Start:  time.Now(),
	}
	// Batch spans and request spans open their own display track;
	// stage/pass spans stay on their request's track.
	if kind == KindBatch || kind == KindRequest || parent.ID == 0 {
		s.Track = uint64(s.ID)
	}
	return s
}

// End finishes the span and publishes it. err may be nil; attrs are attached
// as recorded. Ending a zero span (from a nil recorder) is a no-op.
func (r *Recorder) End(s *Span, err error, attrs ...Attr) {
	if r == nil || s.ID == 0 {
		return
	}
	s.Duration = time.Since(s.Start)
	if err != nil {
		s.Err = err.Error()
	}
	sp := seal(s, attrs)
	s.Attrs = sp.Attrs
	i := r.next.Add(1) - 1
	r.slots[i&r.mask].Store(sp)
}

// seal copies the finished span s, with extra appended to its attributes,
// into storage that is never mutated again. The span and its attributes
// share one allocation when they number at most nine, the most a pipeline
// span carries; the attributes are capacity-capped, so an append to them
// copies.
func seal(s *Span, extra []Attr) *Span {
	n := len(s.Attrs) + len(extra)
	attrs := func(buf []Attr) []Attr {
		return append(append(buf[:0:n], s.Attrs...), extra...)
	}
	switch {
	case n == 0:
		c := *s
		return &c
	case n == 1:
		b := &struct {
			span Span
			buf  [1]Attr
		}{span: *s}
		b.span.Attrs = attrs(b.buf[:])
		return &b.span
	case n <= 3:
		b := &struct {
			span Span
			buf  [3]Attr
		}{span: *s}
		b.span.Attrs = attrs(b.buf[:])
		return &b.span
	case n <= 9:
		b := &struct {
			span Span
			buf  [9]Attr
		}{span: *s}
		b.span.Attrs = attrs(b.buf[:])
		return &b.span
	}
	c := *s
	c.Attrs = attrs(make([]Attr, n))
	return &c
}

// Len returns the number of spans currently held (at most the ring size).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n > uint64(len(r.slots)) {
		return len(r.slots)
	}
	return int(n)
}

// Dropped returns how many spans have been overwritten by ring wrap-around.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	n := r.next.Load()
	if n <= uint64(len(r.slots)) {
		return 0
	}
	return n - uint64(len(r.slots))
}

// Snapshot returns the finished spans currently in the ring, ordered by
// start time. It is safe to call while spans are being recorded: each slot
// is read with one atomic load and published spans are immutable.
func (r *Recorder) Snapshot() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, r.Len()) // concurrent writers may add a few more
	for i := range r.slots {
		if sp := r.slots[i].Load(); sp != nil {
			out = append(out, *sp)
		}
	}
	sortSpans(out)
	return out
}

// sortSpans orders spans by start time, breaking ties by ID (IDs are
// allocated in Start order, so the tiebreak is stable and parent-first).
func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
}
