package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"

	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/obs"
)

// Service runs requests through the pipeline under one set of options,
// prepared once: the options are validated, and the compile and scheduler
// cache-key salts and the request-independent part of every request key are
// rendered. A long-running caller (the scheduld daemon) builds one per
// configuration and then pays per request only for the loop; RunContext
// runs each batch over a Service of its own. A Service is safe for
// concurrent use.
type Service struct {
	opt      Options
	machines []dlx.Config
	metrics  *Metrics
	// compileSalt and schedSalt are Options.compileSalt and Options.salt.
	compileSalt, schedSalt string
	// keyHead and keyMachines are the parts of every request key that do
	// not depend on the request: the key tag with both salts, and the
	// machines (see Key).
	keyHead, keyMachines string
}

// NewService validates opt (see Options.Validate) and prepares a Service
// for it. With no Options.Metrics the Service keeps a private registry,
// shared by all its calls.
func NewService(opt Options) (*Service, error) {
	s, err := newService(opt)
	if err != nil {
		return nil, err
	}
	s.keyHead = "request\x00" + s.compileSalt + "\x00" + s.schedSalt
	var b strings.Builder
	for _, m := range s.machines {
		fmt.Fprintf(&b, "m=%+v\x00", m)
	}
	s.keyMachines = b.String()
	return s, nil
}

// newService is NewService without the request-key parts, which a batch
// does not use.
func newService(opt Options) (*Service, error) {
	if err := opt.Validate(); err != nil {
		return nil, err
	}
	metrics := opt.Metrics
	if metrics == nil {
		metrics = NewMetrics()
	}
	metrics.AttachCache(opt.Cache)
	return &Service{
		opt: opt, machines: opt.machines(), metrics: metrics,
		compileSalt: opt.compileSalt(), schedSalt: opt.salt(),
	}, nil
}

// Key fingerprints the complete scheduling problem req poses under the
// Service's options: the loop source, the compile options, the scheduler
// options (backend included), the machines, the trip count and the
// simulation window. Two requests with equal keys are interchangeable — the
// pipeline computes identical results for both — which makes the key the
// content address concurrent identical requests coalesce on (Group) and
// the daemon's response identity.
func (s *Service) Key(req Request) dfg.Fingerprint {
	n := req.N
	if n == 0 {
		n = s.opt.n()
	}
	src := req.Source
	if req.Loop != nil {
		src = req.Loop.String()
	}
	// The key text is hashed in one piece; for a typical loop it fits the
	// stack buffer.
	var buf [2048]byte
	b := append(buf[:0], s.keyHead...)
	b = append(b, "\x00n="...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, " w="...)
	b = strconv.AppendInt(b, int64(s.opt.Window), 10)
	b = append(b, " x="...)
	b = append(b, s.opt.exactSalt(n)...)
	b = append(b, 0)
	b = append(b, s.keyMachines...)
	b = append(b, src...)
	return sha256.Sum256(b)
}

// Run pushes one request through compile → schedule → check → simulate on
// the calling goroutine, with a pooled scheduler scratch. Its result, spans
// included, is the one a one-request batch under the same options returns
// (failures land in LoopResult.Err); rec, when non-nil, records the spans
// in place of Options.Observer. Options.Deadline bounds the call.
func (s *Service) Run(ctx context.Context, req Request, rec *obs.Recorder) LoopResult {
	if rec == nil {
		rec = s.opt.Observer
	}
	if s.opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.opt.Deadline)
		defer cancel()
	}
	bspan := rec.Start(obs.KindBatch, "batch", obs.Span{})
	res := s.runOne(ctx, rec, bspan, 0, req)
	endBatch(rec, &bspan, 1, []LoopResult{res})
	return res
}
