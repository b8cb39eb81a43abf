package pipeline

import (
	"context"
	"fmt"
	"sync"
	"time"

	"doacross/internal/dfg"
)

// Group coalesces concurrent identical computations by content-addressed
// key: among callers that Do the same key at the same time, exactly one
// (the leader) runs the function; the rest (followers) wait for its result.
// This is the homegrown singleflight of the scheduling daemon, with one
// addition the stock pattern lacks — per-flight deadline inheritance:
//
//   - The flight runs under its own context, detached from the leader's
//     cancellation: a leader whose client disconnects does not strand the
//     followers still waiting.
//   - The flight's deadline is the LATEST deadline among everyone who
//     joined (a joiner with no deadline lifts the bound entirely), extended
//     live as followers arrive. The flight works exactly as long as anyone
//     who asked for the result is still entitled to wait for it.
//   - Every caller waits under its OWN context: a follower with a short
//     timeout gets its deadline error on time even while the flight keeps
//     running for the others. A slow leader never strands followers past
//     their own timeouts.
//   - When the last waiter abandons, the flight is cancelled: nobody wants
//     the result anymore.
//
// The zero value is ready. All methods are safe for concurrent use.
type Group struct {
	mu      sync.Mutex
	flights map[dfg.Fingerprint]*flight
}

type flight struct {
	g    *Group
	key  dfg.Fingerprint
	done chan struct{}
	val  any
	err  error

	// The flight owns its detached context: it must outlive the leader
	// (followers keep the computation alive, extending the deadline), so it
	// cannot be threaded through any single caller's chain.
	ctx    context.Context //schedvet:allow flight-scoped context by design
	cancel context.CancelFunc

	mu        sync.Mutex
	waiters   int
	unbounded bool
	deadline  time.Time
	timer     *time.Timer
}

// Do returns the result of fn for key, coalescing with any in-flight
// computation of the same key. coalesced reports that this caller joined a
// flight another caller leads — the daemon's "duplicate work avoided"
// counter is the number of Do calls that return coalesced=true. fn runs
// under the flight's own context (see Group); err is either fn's error,
// shared by everyone who waited it out, or this caller's own ctx error if
// its context expired first.
func (g *Group) Do(ctx context.Context, key dfg.Fingerprint, fn func(context.Context) (any, error)) (v any, err error, coalesced bool) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.join(ctx)
		g.mu.Unlock()
		v, err = f.wait(ctx)
		return v, err, true
	}
	if g.flights == nil {
		g.flights = make(map[dfg.Fingerprint]*flight)
	}
	f := &flight{g: g, key: key, done: make(chan struct{}), waiters: 1}
	f.ctx, f.cancel = context.WithCancel(context.WithoutCancel(ctx))
	f.extendDeadline(ctx)
	g.flights[key] = f
	g.mu.Unlock()
	go f.run(fn)
	v, err = f.wait(ctx)
	return v, err, false
}

// Stats reports the live flights and the callers currently waiting on them
// (leaders included) — the daemon's coalescing gauges, and what the
// deterministic coalescing tests poll to know every concurrent duplicate
// has joined before releasing the leader.
func (g *Group) Stats() (flights, waiters int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range g.flights {
		f.mu.Lock()
		flights++
		waiters += f.waiters
		f.mu.Unlock()
	}
	return flights, waiters
}

// run executes fn and publishes the outcome. The flight is removed from the
// group before done is closed, so a request arriving after completion
// starts a fresh flight instead of reading a stale one.
func (f *flight) run(fn func(context.Context) (any, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("pipeline: flight panicked: %v", r)
		}
		f.mu.Lock()
		if f.timer != nil {
			f.timer.Stop()
		}
		f.mu.Unlock()
		f.cancel()
		f.g.mu.Lock()
		delete(f.g.flights, f.key)
		f.g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn(f.ctx)
}

// join registers one more waiter and inherits its deadline.
func (f *flight) join(ctx context.Context) {
	f.mu.Lock()
	f.waiters++
	f.mu.Unlock()
	f.extendDeadline(ctx)
}

// extendDeadline widens the flight's deadline to cover ctx's: the latest
// joined deadline wins, and a joiner with no deadline lifts the bound.
func (f *flight) extendDeadline(ctx context.Context) {
	d, ok := ctx.Deadline()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unbounded {
		return
	}
	if !ok {
		f.unbounded = true
		if f.timer != nil {
			f.timer.Stop()
		}
		return
	}
	if !d.After(f.deadline) && !f.deadline.IsZero() {
		return
	}
	f.deadline = d
	if f.timer == nil {
		f.timer = time.AfterFunc(time.Until(d), f.expire)
	} else {
		f.timer.Reset(time.Until(d))
	}
}

// expire fires when the flight's inherited deadline passes; a deadline
// extended after the timer was armed re-arms instead of cancelling.
func (f *flight) expire() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unbounded {
		return
	}
	if remaining := time.Until(f.deadline); remaining > 0 {
		f.timer.Reset(remaining)
		return
	}
	f.cancel()
}

// wait blocks until the flight completes or the caller's own context
// expires. An abandoning caller decrements the waiter count; the last one
// out cancels the flight.
func (f *flight) wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		f.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		f.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}
