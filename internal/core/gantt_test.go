package core

import (
	"strconv"
	"strings"
	"testing"

	"doacross/internal/dlx"
)

func TestGanttCoversAllInstructions(t *testing.T) {
	g := buildGraph(t, fig1Source)
	for _, cfg := range []dlx.Config{dlx.Standard(2, 1), dlx.Standard(4, 2)} {
		s, err := Sync(g, cfg)
		if err != nil {
			t.Fatal(err)
		}
		chart := s.Gantt()
		// Every instruction ID appears in the chart.
		for _, in := range s.Prog.Instrs {
			if !strings.Contains(chart, strconv.Itoa(int(in.ID))) {
				t.Errorf("instruction %d missing from the chart:\n%s", in.ID, chart)
			}
		}
		if strings.Contains(chart, "!") {
			t.Errorf("gantt reported a lane-assignment anomaly:\n%s", chart)
		}
		lines := strings.Split(strings.TrimSpace(chart), "\n")
		if len(lines) != s.CompletionLength()+1 {
			t.Errorf("gantt rows = %d, want %d cycles + header", len(lines), s.CompletionLength())
		}
		if !strings.Contains(lines[0], "ls0") || !strings.Contains(lines[0], "sync") {
			t.Errorf("gantt header = %q", lines[0])
		}
	}
}

func TestGanttShowsMultiCycleOccupancy(t *testing.T) {
	// With standard latencies the multiply holds its unit for 3 cycles: the
	// chart must show '=' continuation cells.
	g := buildGraph(t, fig1Source)
	s, err := List(g, dlx.Standard(4, 1), ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Gantt(), "=") {
		t.Errorf("expected '=' continuation for the 3-cycle multiply:\n%s", s.Gantt())
	}
}
