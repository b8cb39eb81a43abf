// The allocation pin of a warm hit. Excluded under the race detector, which
// instruments every allocation and inflates testing.AllocsPerRun.

//go:build !race

package server

import "testing"

// serveHitAllocs is the most allocations one warm fig1 hit may make when
// served through Handler, its request and response recorder included: 56
// measured (go1.24, linux/amd64), plus 2. Answering hits inside a flight,
// with the flight record's span tree and log attributes built on the
// handler and slog.Logger's caller capture, cost 96; a finished span's
// attributes in an allocation of their own, beside the span's, cost 61.
const serveHitAllocs = 58

// TestServeHitAllocs pins the allocations of a warm fig1 hit served through
// Handler, request and response recorder included.
func TestServeHitAllocs(t *testing.T) {
	serve := hitServer(t)
	allocs := testing.AllocsPerRun(500, serve)
	t.Logf("%.0f allocations per warm hit", allocs)
	if allocs > serveHitAllocs {
		t.Errorf("a warm hit allocates %.0f times, want at most %d", allocs, serveHitAllocs)
	}
}
