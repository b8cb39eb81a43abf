// Pipeline visualizes the DOACROSS wavefront on the detailed simulator: each
// iteration runs on its own processor but cannot pass its Wait_Signal until
// the producing iteration's Send_Signal lands, so iteration start times form
// a software pipeline whose skew is exactly the wait→send span the scheduler
// controls.
package main

import (
	"fmt"
	"log"
	"strings"

	"doacross"
)

const loopSrc = `
DO I = 1, N
  S1: B[I] = A[I-1] + E[I+1]
  S2: P[I+4] = E[I+5] * F[I-5]
  S3: A[I] = B[I] + C[I+2]
ENDDO
`

func main() {
	prog, err := doacross.Compile(loopSrc)
	if err != nil {
		log.Fatal(err)
	}
	m := doacross.Machine4Issue(1)
	n := 12

	for _, mk := range []struct {
		name  string
		build func(doacross.Machine) (*doacross.Schedule, error)
	}{
		{"list scheduling", prog.ScheduleList},
		{"new scheduling", prog.ScheduleSync},
	} {
		s, err := mk.build(m)
		if err != nil {
			log.Fatal(err)
		}
		st := prog.SeedStore(n, 9)
		ref := st.Clone()
		if err := prog.RunSequential(ref); err != nil {
			log.Fatal(err)
		}
		tr := &doacross.SimTracer{}
		t, err := doacross.Execute(s, st, doacross.SimOptions{Lo: 1, Hi: n, Tracer: tr})
		if err != nil {
			log.Fatal(err)
		}
		if d := ref.Diff(st); d != "" {
			log.Fatalf("%s: wrong result: %s", mk.name, d)
		}
		fmt.Printf("=== %s: iteration wavefront (total %d cycles) ===\n", mk.name, t.Total)
		scale := 1
		for t.Total/scale > 100 {
			scale++
		}
		for i := 0; i < n; i++ {
			start, end := int(tr.Iters[i].Rows[0]), tr.Iters[i].Done
			bar := strings.Repeat(" ", start/scale) +
				strings.Repeat("#", max((end-start)/scale, 1))
			fmt.Printf("iter %3d |%s\n", i+1, bar)
		}
		fmt.Printf("pipeline skew: %d cycles/iteration; 1 column = %d cycles\n\n",
			skew(tr), scale)
	}
}

// skew is the steady-state cycles-per-iteration growth of completion times —
// with the wait mid-body, iterations all *start* immediately and stall at
// the wait, so the completion times carry the recurrence.
func skew(tr *doacross.SimTracer) int {
	it := tr.Iters
	if len(it) < 2 {
		return 0
	}
	return it[len(it)-1].Done - it[len(it)-2].Done
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
