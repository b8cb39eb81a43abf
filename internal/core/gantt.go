package core

import (
	"fmt"
	"strings"

	"doacross/internal/dlx"
)

// Gantt renders the schedule as a per-cycle function-unit occupancy chart:
// one row per cycle, one lane per function-unit instance (plus a lane for
// synchronization operations, which use issue slots only). Instruction IDs
// mark issue; '=' marks a unit still busy with a multi-cycle operation.
func (s *Schedule) Gantt() string {
	type lane struct {
		class    dlx.Class
		instance int
	}
	var lanes []lane
	for cls := dlx.Class(0); cls < dlx.NumClasses; cls++ {
		if cls == dlx.Sync {
			continue
		}
		for k := 0; k < s.Cfg.Units[cls]; k++ {
			lanes = append(lanes, lane{class: cls, instance: k})
		}
	}
	syncLane := len(lanes)
	width := s.CompletionLength()
	// grid[lane][cycle] = cell text.
	grid := make([][]string, syncLane+1)
	for i := range grid {
		grid[i] = make([]string, width)
	}
	// Busy horizon per lane for greedy instance assignment.
	busyUntil := make([]int, syncLane)
	for _, row := range s.Rows {
		for _, v := range row {
			in := &s.Prog.Instrs[v]
			c := s.Cycle[v]
			lat := s.Cfg.Latency[in.Class()]
			if in.Class() == dlx.Sync {
				cell := grid[syncLane][c]
				if cell != "" {
					cell += ","
				}
				grid[syncLane][c] = cell + fmt.Sprintf("%d", in.ID)
				continue
			}
			// Pick the first free instance lane of the class.
			placed := false
			for li, ln := range lanes {
				if ln.class != in.Class() || busyUntil[li] > c {
					continue
				}
				grid[li][c] = fmt.Sprintf("%d", in.ID)
				for k := c + 1; k < c+lat && k < width; k++ {
					grid[li][k] = "="
				}
				busyUntil[li] = c + lat
				placed = true
				break
			}
			if !placed {
				// Should be impossible for validated schedules; make the
				// anomaly visible rather than panicking.
				grid[syncLane][c] += fmt.Sprintf("!%d", in.ID)
			}
		}
	}
	shortName := map[dlx.Class]string{
		dlx.LoadStore: "ls", dlx.Integer: "int", dlx.Float: "fp",
		dlx.Multiplier: "mul", dlx.Divider: "div", dlx.Shifter: "shf",
	}
	var sb strings.Builder
	sb.WriteString("cycle")
	for _, ln := range lanes {
		fmt.Fprintf(&sb, " %5s", fmt.Sprintf("%s%d", shortName[ln.class], ln.instance))
	}
	sb.WriteString("  sync\n")
	for c := 0; c < width; c++ {
		fmt.Fprintf(&sb, "%5d", c)
		for li := range lanes {
			cell := grid[li][c]
			if cell == "" {
				cell = "."
			}
			fmt.Fprintf(&sb, " %5s", cell)
		}
		cell := grid[syncLane][c]
		if cell == "" {
			cell = "."
		}
		fmt.Fprintf(&sb, "  %s\n", cell)
	}
	return sb.String()
}
