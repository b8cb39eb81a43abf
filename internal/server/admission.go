package server

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// tenantID extracts the caller's tenant for rate accounting ("" falls back
// to the shared default bucket, so unlabeled callers still share fairly).
const defaultTenant = "default"

// rateLimiter is a per-tenant token-bucket limiter: each tenant accrues
// rate tokens per second up to burst, and one request costs one token. A
// nil *rateLimiter admits everything (rate limiting disabled).
type rateLimiter struct {
	rate  float64 // tokens per second
	burst float64 // bucket capacity

	mu      sync.Mutex
	buckets map[string]*bucket
}

type bucket struct {
	tokens float64
	last   time.Time
}

// newRateLimiter builds a limiter, or nil when rate <= 0 (disabled).
func newRateLimiter(rate, burst float64) *rateLimiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = 1
	}
	return &rateLimiter{rate: rate, burst: burst, buckets: make(map[string]*bucket)}
}

// admit spends one token from tenant's bucket. When the bucket is empty it
// reports false plus how long until a full token has accrued — the 429's
// Retry-After.
func (l *rateLimiter) admit(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	if l == nil {
		return true, 0
	}
	if tenant == "" {
		tenant = defaultTenant
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, found := l.buckets[tenant]
	if !found {
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	}
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * l.rate
		if b.tokens > l.burst {
			b.tokens = l.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	need := (1 - b.tokens) / l.rate
	return false, time.Duration(need * float64(time.Second))
}

// admission bounds the work the daemon accepts: at most inFlight requests
// hold a slot at once, and at most queueLimit more may wait for one. Past
// both bounds requests are shed immediately (503) instead of piling onto
// an unbounded queue — the load-shedding half of admission control.
type admission struct {
	slots      chan struct{}
	queueLimit int
	waiting    atomic.Int64
	held       atomic.Int64
}

func newAdmission(inFlight, queueLimit int) *admission {
	if inFlight < 1 {
		inFlight = 1
	}
	if queueLimit < 0 {
		queueLimit = 0
	}
	return &admission{slots: make(chan struct{}, inFlight), queueLimit: queueLimit}
}

// acquire takes a slot, queuing (bounded) when all are held. It returns the
// release func on success; ok=false means the request was shed — the queue
// was full, or ctx expired while waiting.
func (a *admission) acquire(ctx context.Context) (release func(), ok bool) {
	select {
	case a.slots <- struct{}{}:
		return a.releaseFunc(), true
	default:
	}
	// All slots held: join the bounded wait queue or shed.
	if int(a.waiting.Add(1)) > a.queueLimit {
		a.waiting.Add(-1)
		return nil, false
	}
	defer a.waiting.Add(-1)
	select {
	case a.slots <- struct{}{}:
		return a.releaseFunc(), true
	case <-ctx.Done():
		return nil, false
	}
}

func (a *admission) releaseFunc() func() {
	a.held.Add(1)
	var once sync.Once
	return func() {
		once.Do(func() {
			a.held.Add(-1)
			<-a.slots
		})
	}
}

// inFlight and queued are the admission gauges.
func (a *admission) inFlight() int64 { return a.held.Load() }
func (a *admission) queued() int64   { return a.waiting.Load() }

// Circuit-breaker states. The breaker is keyed per scheduling backend: a
// backend that keeps failing (degraded fallbacks, server-side errors) trips
// its own circuit without taking the healthy backends down with it.
const (
	breakerClosed   = iota // normal operation
	breakerOpen            // tripped: requests shed until cooldown passes
	breakerHalfOpen        // cooldown passed: one probe request allowed
)

// breakerSet holds one circuit breaker per backend. threshold consecutive
// failures open a circuit; after cooldown one probe is let through — its
// success closes the circuit, its failure re-opens it for another cooldown.
// Client errors (bad source) never count: only outcomes that indicate the
// backend itself is unhealthy do.
type breakerSet struct {
	threshold int
	cooldown  time.Duration
	opens     atomic.Int64

	mu sync.Mutex
	m  map[string]*breaker
}

type breaker struct {
	state       int
	consecFails int
	openedAt    time.Time
	probing     bool // a half-open probe is in flight
}

// newBreakerSet builds the registry, or nil when threshold <= 0 (disabled).
func newBreakerSet(threshold int, cooldown time.Duration) *breakerSet {
	if threshold <= 0 {
		return nil
	}
	if cooldown <= 0 {
		cooldown = 30 * time.Second
	}
	return &breakerSet{threshold: threshold, cooldown: cooldown, m: make(map[string]*breaker)}
}

// allow reports whether a request for backend may proceed. When the circuit
// is open it returns the remaining cooldown as the 503's Retry-After.
func (s *breakerSet) allow(backend string, now time.Time) (ok bool, retryAfter time.Duration) {
	if s == nil {
		return true, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, found := s.m[backend]
	if !found {
		return true, 0
	}
	switch b.state {
	case breakerClosed:
		return true, 0
	case breakerOpen:
		if remaining := b.openedAt.Add(s.cooldown).Sub(now); remaining > 0 {
			return false, remaining
		}
		b.state = breakerHalfOpen
		b.probing = true
		return true, 0
	default: // half-open
		if b.probing {
			return false, s.cooldown
		}
		b.probing = true
		return true, 0
	}
}

// record feeds one request outcome back into backend's circuit and reports
// whether this outcome opened it. Callers must report only backend-health
// outcomes: degraded (fallback-served) results and server-side failures as
// ok=false, clean results as ok=true; client errors are not recorded at all.
// A nil (disabled) set records nothing.
func (s *breakerSet) record(backend string, ok bool, now time.Time) (opened bool) {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	b, found := s.m[backend]
	if !found {
		if ok {
			return false
		}
		b = &breaker{}
		s.m[backend] = b
	}
	if ok {
		b.state = breakerClosed
		b.consecFails = 0
		b.probing = false
		return false
	}
	b.probing = false
	b.consecFails++
	// A failed half-open probe goes straight back to open for another
	// cooldown; a closed circuit opens at the threshold.
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.consecFails >= s.threshold) {
		b.state = breakerOpen
		b.openedAt = now
		s.opens.Add(1)
		return true
	}
	return false
}

// openCount is the number of open transitions so far (0 when disabled).
func (s *breakerSet) openCount() int64 {
	if s == nil {
		return 0
	}
	return s.opens.Load()
}

// states snapshots every backend's circuit state for /metrics.
func (s *breakerSet) states() map[string]int {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string]int, len(s.m))
	for name, b := range s.m {
		out[name] = b.state
	}
	return out
}
