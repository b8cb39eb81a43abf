package sim

import (
	"fmt"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dlx"
)

// TestFarDistanceTiming: a wait whose distance reaches before the first
// iteration never binds, so the iteration ring is sized from the distances
// below n only. For distances around n and far past it, the untraced and
// traced recurrence must agree with the detailed simulator, which keeps no
// ring, and every distance from n up must give the same timing.
func TestFarDistanceTiming(t *testing.T) {
	const n = 100
	far := map[string]Timing{}
	for _, d := range []int{n - 1, n, n + 1, 100000, 10000000} {
		b := build(t, fmt.Sprintf("DO I = 1, N\nS1: A[I] = A[I-1] + B[I]\nS2: C[I] = A[I-%d] + C[I-1]\nS3: E[I] = C[I-2] + A[I-3]\nENDDO", d))
		for _, cfg := range dlx.PaperConfigs() {
			for _, s := range []*core.Schedule{mustList(t, b, cfg), mustSync(t, b, cfg)} {
				for _, procs := range []int{0, 7} {
					opt := Options{Lo: 1, Hi: n, Procs: procs}
					label := fmt.Sprintf("d=%d %s/%s procs=%d", d, cfg.Name, s.Method, procs)
					want, err := Run(s, b.loop.SeedStore(n, 8, 1), opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					untraced, err := Time(s, opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					traced, _, err := Utilize(s, opt)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if untraced != want || traced != want {
						t.Errorf("%s: untraced %+v, traced %+v, detailed %+v", label, untraced, traced, want)
					}
					if d < n {
						continue
					}
					key := fmt.Sprintf("%s/%s procs=%d rows=%v", cfg.Name, s.Method, procs, s.Rows)
					if prev, ok := far[key]; ok && prev != want {
						t.Errorf("%s: %+v, but %+v at another distance past n", label, want, prev)
					}
					far[key] = want
				}
			}
		}
	}
}
