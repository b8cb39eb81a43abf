// Load-time verification: the persistent cache tier's trust boundary.
//
// Schedules that come back from disk have survived a checksum, but a
// checksum only proves "these are the bytes that were written" — it cannot
// prove the bytes were right when written, that the store's key still maps
// to this scheduling problem, or that a tampered file was not re-framed
// with a fresh checksum. VerifyLoaded therefore re-runs the full
// translation-validation pipeline over a deserialized schedule set exactly
// as if the schedules had just been produced by an untrusted scheduler:
// nothing restored from disk is ever served on the strength of its
// checksum alone. A restored set is either verified here, or byte-identical
// (the same issue rows) to a set already verified over the same compiled
// program — the loader's verify-once rule for one problem persisted at
// several trip counts — and its own simulated time always passes
// VerifyTiming.
package check

import (
	"doacross/internal/core"
	"doacross/internal/diag"
)

// VerifyLoaded verifies a schedule set deserialized from the persistent
// tier before it may re-enter service: each non-nil schedule passes the
// full independent verification (Verify: shape, dependence order, both
// synchronization conditions, resource feasibility, deadlock freedom,
// LBD/LFD agreement) against edges derived once from the sync schedule's
// program, and the set's recorded simulated time for the served
// (sync) schedule passes the timing audit (VerifyTiming) at the recorded
// trip count. An empty Errors() set means the restored entry is as
// trustworthy as a freshly computed one; any error means the bytes must be
// quarantined, not served.
//
// Like Verify, VerifyLoaded never panics, whatever shape the deserialized
// schedules are in — it is safe on adversarially mutated inputs.
func VerifyLoaded(list, sync, best *core.Schedule, syncTime, n int) diag.List {
	var out diag.List
	if sync == nil {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"loaded entry has no synchronization-aware schedule"))
		return out
	}
	v := NewVerifier(sync.Prog)
	for _, s := range []*core.Schedule{list, sync, best} {
		if s == nil {
			continue
		}
		out = append(out, v.Verify(s)...)
	}
	if Err(out) == nil {
		out = append(out, VerifyTiming(sync, syncTime, n)...)
	}
	return out
}
