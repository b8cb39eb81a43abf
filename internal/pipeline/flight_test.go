package pipeline

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doacross/internal/dfg"
)

func flightKey(b byte) dfg.Fingerprint {
	var k dfg.Fingerprint
	k[0] = b
	return k
}

// waitFor polls cond until it holds or the deadline passes — the
// deterministic alternative to sleeping a guessed duration.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestGroupCoalesces: N concurrent Do calls of one key run the function
// exactly once; N-1 report coalesced.
func TestGroupCoalesces(t *testing.T) {
	var g Group
	const n = 8
	release := make(chan struct{})
	var runs atomic.Int64
	fn := func(ctx context.Context) (any, error) {
		runs.Add(1)
		<-release
		return "result", nil
	}
	var wg sync.WaitGroup
	var coalescedCount atomic.Int64
	results := make([]any, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, coalesced := g.Do(context.Background(), flightKey(1), fn)
			results[i], errs[i] = v, err
			if coalesced {
				coalescedCount.Add(1)
			}
		}(i)
	}
	// Release only after every caller joined the flight: that is what makes
	// the coalesced count exact rather than racy.
	waitFor(t, "all callers to join", func() bool {
		flights, waiters := g.Stats()
		return flights == 1 && waiters == n
	})
	close(release)
	wg.Wait()
	for i := 0; i < n; i++ {
		if errs[i] != nil || results[i] != "result" {
			t.Errorf("caller %d: (%v, %v)", i, results[i], errs[i])
		}
	}
	if got := coalescedCount.Load(); got != n-1 {
		t.Errorf("coalesced = %d, want %d", got, n-1)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("fn ran %d times, want 1", got)
	}
	if flights, waiters := g.Stats(); flights != 0 || waiters != 0 {
		t.Errorf("flights leaked: %d flights, %d waiters", flights, waiters)
	}
	// The flight is gone: a new Do starts fresh.
	v, err, coalesced := g.Do(context.Background(), flightKey(1), func(context.Context) (any, error) {
		return "fresh", nil
	})
	if v != "fresh" || err != nil || coalesced {
		t.Errorf("post-completion Do = (%v, %v, %v)", v, err, coalesced)
	}
}

// TestGroupDistinctKeys: different keys never coalesce.
func TestGroupDistinctKeys(t *testing.T) {
	var g Group
	var runs atomic.Int64
	var wg sync.WaitGroup
	for i := byte(0); i < 4; i++ {
		wg.Add(1)
		go func(i byte) {
			defer wg.Done()
			_, _, coalesced := g.Do(context.Background(), flightKey(i), func(context.Context) (any, error) {
				runs.Add(1)
				return nil, nil
			})
			if coalesced {
				t.Errorf("key %d coalesced with another key", i)
			}
		}(i)
	}
	wg.Wait()
	if got := runs.Load(); got != 4 {
		t.Errorf("fn ran %d times, want 4", got)
	}
}

// TestGroupDeadlineInheritance: a joiner without a deadline lifts the
// flight's bound, so the leader's short deadline expires the leader's wait
// but not the computation — the patient follower still gets the result.
func TestGroupDeadlineInheritance(t *testing.T) {
	var g Group
	release := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "late result", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	leaderCtx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	leaderDone := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(leaderCtx, flightKey(1), fn)
		leaderDone <- err
	}()
	waitFor(t, "leader to start the flight", func() bool {
		flights, _ := g.Stats()
		return flights == 1
	})
	followerDone := make(chan struct{})
	var followerVal any
	var followerErr error
	go func() {
		defer close(followerDone)
		followerVal, followerErr, _ = g.Do(context.Background(), flightKey(1), fn)
	}()
	waitFor(t, "follower to join", func() bool {
		_, waiters := g.Stats()
		return waiters == 2
	})
	// The leader's own deadline fires: it gets its context error on time.
	if err := <-leaderDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader error = %v, want DeadlineExceeded", err)
	}
	// Well past the leader's deadline the flight must still be running,
	// because the follower joined without a deadline.
	time.Sleep(50 * time.Millisecond)
	select {
	case <-followerDone:
		t.Fatal("follower finished before release: the flight was cancelled by the leader's deadline")
	default:
	}
	close(release)
	<-followerDone
	if followerErr != nil || followerVal != "late result" {
		t.Errorf("follower = (%v, %v), want (late result, nil)", followerVal, followerErr)
	}
}

// TestGroupLastAbandonerCancels: when every waiter gives up, the flight's
// context is cancelled — nobody wants the result, so the work stops.
func TestGroupLastAbandonerCancels(t *testing.T) {
	var g Group
	flightCancelled := make(chan struct{})
	fn := func(ctx context.Context) (any, error) {
		<-ctx.Done()
		close(flightCancelled)
		return nil, ctx.Err()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(ctx, flightKey(1), fn)
		done <- err
	}()
	waitFor(t, "flight to start", func() bool {
		flights, _ := g.Stats()
		return flights == 1
	})
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoner error = %v, want Canceled", err)
	}
	select {
	case <-flightCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("flight context never cancelled after the last waiter left")
	}
}

// TestGroupPanicShared: a panicking flight delivers an error to every
// waiter instead of poisoning the group.
func TestGroupPanicShared(t *testing.T) {
	var g Group
	_, err, _ := g.Do(context.Background(), flightKey(1), func(context.Context) (any, error) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("panicked flight returned err = %v", err)
	}
	if flights, _ := g.Stats(); flights != 0 {
		t.Error("panicked flight leaked")
	}
	// The group still works.
	v, err, _ := g.Do(context.Background(), flightKey(1), func(context.Context) (any, error) {
		return "ok", nil
	})
	if v != "ok" || err != nil {
		t.Errorf("post-panic Do = (%v, %v)", v, err)
	}
}

// gatedDeadline is a context whose deadline passes when the test says so:
// Deadline reports at, and Done closes, with Err DeadlineExceeded, only when
// the test closes done. A test can thus order "the deadline passed" after
// any event it observes, however the goroutines are scheduled; at should
// lie beyond the test's run, so no timer armed for it fires by itself.
type gatedDeadline struct {
	at   time.Time
	done chan struct{}
}

func (c *gatedDeadline) Deadline() (time.Time, bool) { return c.at, true }
func (c *gatedDeadline) Done() <-chan struct{}       { return c.done }
func (c *gatedDeadline) Value(any) any               { return nil }
func (c *gatedDeadline) Err() error {
	select {
	case <-c.done:
		return context.DeadlineExceeded
	default:
		return nil
	}
}

// TestGroupLaterDeadlineWins: among bounded joiners the latest deadline
// governs the flight: it outlives the leader's shorter deadline. The short
// deadline passes only once the second caller's join has been observed, so
// it cannot cancel the flight before the join, whatever the scheduling:
// then the leader gives up, the flight's timer fires for the short
// deadline, and the flight must re-arm for the joined one and keep running.
func TestGroupLaterDeadlineWins(t *testing.T) {
	var g Group
	release := make(chan struct{})
	defer close(release)
	fn := func(ctx context.Context) (any, error) {
		select {
		case <-release:
			return "v", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	now := time.Now()
	short := &gatedDeadline{at: now.Add(time.Hour), done: make(chan struct{})}
	longCtx, cancelLong := context.WithDeadline(context.Background(), now.Add(2*time.Hour))
	defer cancelLong()
	leader := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(short, flightKey(1), fn)
		leader <- err
	}()
	waitFor(t, "flight to start", func() bool { f, _ := g.Stats(); return f == 1 })
	done := make(chan error, 1)
	go func() {
		_, err, _ := g.Do(longCtx, flightKey(1), fn)
		done <- err
	}()
	waitFor(t, "second caller to join", func() bool { _, w := g.Stats(); return w == 2 })
	g.mu.Lock()
	f := g.flights[flightKey(1)]
	g.mu.Unlock()

	// The short deadline passes: its caller gives up...
	close(short.done)
	if err := <-leader; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("short caller returned %v, want its deadline error", err)
	}
	// ...and the flight's timer, armed for that deadline, fires.
	f.expire()
	f.mu.Lock()
	deadline := f.deadline
	f.mu.Unlock()
	if want, _ := longCtx.Deadline(); !deadline.Equal(want) {
		t.Errorf("flight deadline = %v, want the joined %v", deadline, want)
	}
	if err := f.ctx.Err(); err != nil {
		t.Fatalf("short deadline cancelled the flight: %v", err)
	}
	select {
	case err := <-done:
		t.Fatalf("long waiter finished early with %v", err)
	default:
	}
	release <- struct{}{}
	if err := <-done; err != nil {
		t.Errorf("long waiter error = %v", err)
	}
}
