package doacross_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/loopgen"
	"doacross/internal/model"
	"doacross/internal/pipeline"
	"doacross/internal/scheditest"
	"doacross/internal/server"
	"doacross/internal/sim"
	"doacross/internal/tac"
)

// behaviourDigests are the SHA-256 digests of what the system computes for
// a fixed input set: "schedules" covers every heuristic backend's schedule
// rows, simulated Timing, Predict value and verifier verdicts over the wide
// corpus and the size sweep up to 40 statements on the paper's four
// machines; "served" covers scheduld's 200 bodies for a fixed request set,
// request IDs masked. A change to either digest is a change in behaviour:
// update it only with a change that says why behaviour changed.
var behaviourDigests = map[string]string{
	"schedules": "b0ac56cb2ff2599efc60e20c3f887864f5363f5c50c3e65a3bc73e89f1cebb34",
	"served":    "a31d69a36518d739340a4477b78bff8d079fed9e47449198ac1e5afbbe041c42",
}

// digestBackends are the heuristic backends the schedule digest covers.
var digestBackends = []core.Scheduler{
	core.SyncScheduler{},
	core.ListScheduler{Priority: core.CriticalPath},
	core.ListScheduler{Priority: core.ProgramOrder},
	core.BestScheduler{},
}

// checkDigest compares h's digest with the recorded one.
func checkDigest(t *testing.T, name string, h hash.Hash, items int) {
	t.Helper()
	got := hex.EncodeToString(h.Sum(nil))
	t.Logf("%s: %d items, digest %s", name, items, got)
	if want := behaviourDigests[name]; got != want {
		t.Errorf("%s: digest %s, recorded %s", name, got, want)
	}
}

// TestBehaviourDigest holds every schedule, simulated time, prediction and
// verdict of the heuristic backends to a recorded digest: for each loop of
// the wide corpus and the size sweep up to 40 statements, each paper
// machine and each backend, the schedule's rows, sim.Time at n = 100
// without a signal window and at n = 37 with the smallest window the loop
// admits (one above its largest wait distance), Predict at both trip
// counts, and the verifier's and the timing audit's findings.
func TestBehaviourDigest(t *testing.T) {
	cases := scheditest.WideCorpus(t, filepath.Join("testdata", "kernels"), 120)
	cases = append(cases, scheditest.SweepCorpus(t, 40)...)
	h := sha256.New()
	items := 0
	for _, c := range cases {
		window := 1
		for _, in := range c.Graph.Prog.Instrs {
			if in.Op == tac.Wait {
				window = max(window, int(in.SigDist)+1)
			}
		}
		for _, cfg := range dlx.PaperConfigs() {
			for _, b := range digestBackends {
				out, err := b.Schedule(c.Graph, cfg)
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", c.Name, cfg.Name, b.Name(), err)
				}
				s := out.Schedule
				fmt.Fprintf(h, "%s %s %s rows=%v\n", c.Name, cfg.Name, b.Name(), s.Rows)
				for _, opt := range []sim.Options{{Lo: 1, Hi: 100}, {Lo: 1, Hi: 37, Window: window}} {
					tm, err := sim.Time(s, opt)
					if err != nil {
						t.Fatalf("%s/%s/%s: %v", c.Name, cfg.Name, b.Name(), err)
					}
					n := opt.Hi - opt.Lo + 1
					fmt.Fprintf(h, "n=%d w=%d %+v predict=%d timing=%v\n", n, opt.Window, tm,
						model.Predict(s, n), check.VerifyTiming(s, tm.Total, n))
				}
				fmt.Fprintf(h, "verify=%v\n", check.Verify(s))
				items++
			}
		}
	}
	checkDigest(t, "schedules", h, items)
}

// digestRequests is the fixed request set of the served digest: the
// paper's Fig. 1 loop, every single-loop kernel and 40 seeded loopgen
// loops, each at the default trip count on the default backend; then
// Fig. 1 and every fourth loopgen loop again at other trip counts and on
// the other backends. A repeated request is a cache hit and shows it in its body.
func digestRequests(t *testing.T) []server.ScheduleRequest {
	t.Helper()
	fig1 := "DO I = 1, N\nS1: B[I] = A[I-2] + E[I+1]\nS2: G[I-3] = A[I-1] * E[I+2]\nS3: A[I] = B[I] + C[I+3]\nENDDO"
	reqs := []server.ScheduleRequest{{Name: "fig1", Source: fig1}}
	kernels, err := filepath.Glob(filepath.Join("testdata", "kernels", "*.loop"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range kernels {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if f, err := lang.ParseFile(string(b)); err != nil || len(f.Loops) != 1 {
			continue
		}
		reqs = append(reqs, server.ScheduleRequest{Name: filepath.Base(path), Source: string(b)})
	}
	gen := loopgen.Suite(0xD16E57, 40)
	for i, src := range gen {
		reqs = append(reqs, server.ScheduleRequest{Name: fmt.Sprintf("gen%d", i), Source: src})
	}
	again := []server.ScheduleRequest{{Name: "fig1", Source: fig1}}
	for i := 0; i < len(gen); i += 4 {
		again = append(again, server.ScheduleRequest{Name: fmt.Sprintf("gen%d", i), Source: gen[i]})
	}
	for k, r := range again {
		for _, v := range []struct {
			n       int
			backend string
		}{{100, ""}, {1000, ""}, {7, "list"}, {100, "order"}, {250, "best"}} {
			r.N, r.Backend = v.n, v.backend
			if k%2 == 1 && v.backend == "order" {
				continue
			}
			reqs = append(reqs, r)
		}
	}
	return reqs
}

// TestServedDigest holds scheduld's answers to a recorded digest: the
// fixed request set is served in order by a daemon on the paper's four
// machines, and then by one that traces every simulation (scheduld
// -machine-obs), and every 200 body, its request_id masked, is hashed.
func TestServedDigest(t *testing.T) {
	reqs := digestRequests(t)
	rid := regexp.MustCompile(`"request_id":"[^"]*"`)
	h := sha256.New()
	items := 0
	for _, traced := range []bool{false, true} {
		srv, err := server.New(server.Config{Pipeline: pipeline.Options{Machines: dlx.PaperConfigs(), Utilization: traced}})
		if err != nil {
			t.Fatal(err)
		}
		handler := srv.Handler()
		for _, req := range reqs {
			if traced && req.N > 100 {
				continue
			}
			body, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			w := httptest.NewRecorder()
			handler.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(body))))
			if w.Code != http.StatusOK {
				t.Fatalf("%s (n=%d, backend %q): status %d: %s", req.Name, req.N, req.Backend, w.Code, w.Body)
			}
			fmt.Fprintf(h, "traced=%v %s\n", traced, rid.ReplaceAll(w.Body.Bytes(), []byte(`"request_id":""`)))
			items++
		}
	}
	checkDigest(t, "served", h, items)
}
