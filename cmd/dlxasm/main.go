// Command dlxasm compiles a loop all the way to DLX-like machine code and
// prints the assembly with its binary encoding, then (with -run) executes
// the encoded program sequentially and in DOACROSS parallel on the machine
// interpreter, verifying both against the reference interpreter.
//
// Usage:
//
//	dlxasm [-n 20] [-run] [-procs 0] [file]
package main

import (
	"flag"
	"fmt"
	"os"

	"doacross"
	"doacross/internal/cliutil"
)

func main() {
	n := flag.Int("n", 20, "loop trip count for -run and the address window")
	run := flag.Bool("run", false, "execute the binary and verify against the interpreter")
	procs := flag.Int("procs", 0, "processor count for the parallel run (0 = one per iteration)")
	seed := flag.Uint64("seed", 1, "data seed")
	flag.Parse()

	src, err := cliutil.ReadInput(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	prog, err := doacross.Compile(src)
	if err != nil {
		fail(err)
	}
	code, err := prog.Assemble(1-16, *n+16)
	if err != nil {
		fail(err)
	}
	fmt.Print(code.Listing())
	fmt.Printf("\n%d instructions, %d spill slots, %d memory cells (%d bytes), signals %v\n",
		len(code.Insts), code.NumSpills, code.Layout.Cells, 4*code.Layout.Cells, code.Signals)
	if !*run {
		return
	}

	ref := prog.SeedStore(*n, *seed)
	seq := ref.Clone()
	par := ref.Clone()
	if err := prog.RunSequential(ref); err != nil {
		fail(err)
	}
	if err := code.Run(seq, true); err != nil {
		fail(err)
	}
	res, err := code.RunParallel(par, *procs)
	if err != nil {
		fail(err)
	}
	check := func(name string, st *doacross.Store) {
		for _, arr := range prog.Loop.Arrays() {
			for i := 1; i <= *n; i++ {
				if ref.Elem(arr, i) != st.Elem(arr, i) {
					fail(fmt.Errorf("%s: %s[%d] = %v, want %v", name, arr, i, st.Elem(arr, i), ref.Elem(arr, i)))
				}
			}
		}
		fmt.Printf("%s: memory matches the reference interpreter\n", name)
	}
	check("sequential binary run", seq)
	check("parallel binary run", par)
	fmt.Printf("parallel run: %d cycles, %d stall processor-cycles\n", res.Cycles, res.Stalls)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dlxasm:", err)
	os.Exit(1)
}
