package tables

import (
	"fmt"

	"doacross/internal/lang"
	"doacross/internal/pipeline"
)

// AuditLoop is one source loop entering the optimality-gap, utilization or
// dependence-precision audit.
type AuditLoop struct {
	// Name labels the loop in rows and reports.
	Name string
	// Loop is the parsed source loop.
	Loop *lang.Loop
}

// ParseLoops parses every loop of a source file into audit inputs.
// Multi-loop files yield "<name>#k" entries.
func ParseLoops(name, src string) ([]AuditLoop, error) {
	f, err := lang.ParseFile(src)
	if err != nil {
		return nil, fmt.Errorf("tables: %s: %w", name, err)
	}
	out := make([]AuditLoop, len(f.Loops))
	for i, l := range f.Loops {
		out[i] = AuditLoop{Name: name, Loop: l}
		if len(f.Loops) > 1 {
			out[i].Name = fmt.Sprintf("%s#%d", name, i+1)
		}
	}
	return out, nil
}

// requests makes one batch request per loop, at the batch's trip count.
func requests(loops []AuditLoop) []pipeline.Request {
	reqs := make([]pipeline.Request, len(loops))
	for i, l := range loops {
		reqs[i] = pipeline.Request{Name: l.Name, Loop: l.Loop}
	}
	return reqs
}

// audit runs reqs through the batch pipeline under opt, which compiles,
// schedules, verifies and simulates every loop on every machine across its
// workers, and returns the results in request order. Every audited schedule
// thereby passes the same verifier and timing audit as a served one. A loop
// fails the audit, naming the loop, when its request failed, and, naming
// the machine too, when any machine served it with the degraded fallback.
func audit(reqs []pipeline.Request, opt pipeline.Options) ([]pipeline.LoopResult, error) {
	batch, err := pipeline.Run(reqs, opt)
	if err != nil {
		return nil, fmt.Errorf("tables: %w", err)
	}
	for _, lr := range batch.Loops {
		if lr.Err != nil {
			return nil, fmt.Errorf("tables: %s: %w", lr.Name, lr.Err)
		}
		for _, mr := range lr.Machines {
			if mr.Degraded {
				return nil, fmt.Errorf("tables: %s on %s: degraded: %s", lr.Name, mr.Machine, mr.DegradedReason)
			}
		}
	}
	return batch.Loops, nil
}
