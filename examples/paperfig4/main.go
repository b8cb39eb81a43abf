// Paperfig4 reproduces the paper's worked example end to end: the Fig. 1
// loop, its synchronization insertion (Fig. 1(b)), the three-address code
// (Fig. 2), the Sigwat/Wat partition with the synchronization path (Fig. 3),
// and the list vs. new schedules at 4-issue (Fig. 4), closing with the
// parallel-execution-time comparison the paper quotes ((12·N)+13 vs
// ~(N/2)·7+13 in its position-based model).
package main

import (
	"fmt"
	"log"

	"doacross"
)

const fig1 = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

func main() {
	prog, err := doacross.Compile(fig1)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== Fig. 1(a): the source loop ===")
	fmt.Print(prog.Loop.String())

	fmt.Println("\n=== Fig. 1(b): after synchronization insertion ===")
	fmt.Print(prog.DoacrossSource())
	fmt.Println("\nTwo dependences: A[I] (S3) -> A[I-2] (S1) at distance 2 and")
	fmt.Println("A[I] (S3) -> A[I-1] (S2) at distance 1; one shared Send_Signal(S3).")

	fmt.Println("\n=== Fig. 2: three-address code ===")
	fmt.Print(prog.Listing())
	fmt.Println("(Instructions 1-26 match the paper one to one; the paper fuses our")
	fmt.Println("add 26 + store 27 into its single line 26.)")

	fmt.Println("\n=== Fig. 3: data-flow graph with synchronization arcs ===")
	fmt.Println(prog.GraphInfo())
	for _, sp := range prog.Graph.SyncPaths() {
		ids := make([]int32, len(sp.Nodes))
		for i, v := range sp.Nodes {
			ids[i] = prog.Code.Instrs[v].ID
		}
		fmt.Printf("synchronization path SP(Wat,Sig) d=%d: instructions %v\n", sp.Distance, ids)
	}

	// Fig. 4 uses 4-issue with one unit each and single-cycle latencies.
	m := doacross.UniformMachine(4, 1)

	list, err := prog.ScheduleListProgramOrder(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Fig. 4(a): list scheduling, 4-issue ===")
	fmt.Print(list.String())
	report(list)

	syn, err := prog.ScheduleSync(m)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\n=== Fig. 4(b): the new scheduling ===")
	fmt.Print(syn.String())
	report(syn)

	n := 100
	ta := doacross.Simulate(list, n).Total
	tb := doacross.Simulate(syn, n).Total
	fmt.Printf("\nparallel execution time, n=%d iterations on %d processors:\n", n, n)
	fmt.Printf("  list scheduling: %5d cycles\n", ta)
	fmt.Printf("  new  scheduling: %5d cycles\n", tb)
	fmt.Printf("  improvement:     %5.1f%%\n", doacross.Speedup(ta, tb))
	fmt.Printf("\nLBD loop theorem cross-check (model.Predict): list %d, new %d\n",
		doacross.Predict(list, n), doacross.Predict(syn, n))
}

func report(s *doacross.Schedule) {
	for _, p := range s.PairSpans() {
		kind := "LFD"
		if p.LBD() {
			kind = "LBD"
		}
		fmt.Printf("pair (Wait d=%d, Send %s): wait@%d send@%d -> %s\n",
			p.Distance, p.Signal, p.WaitCycle, p.SendCycle, kind)
	}
}
