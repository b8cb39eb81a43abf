package cliutil

import (
	"io"
	"os"
	"strings"

	"doacross"
)

// ReadInput reads a command's loop source: the named file, or standard
// input when path is "" or "-".
func ReadInput(path string) (string, error) {
	var b []byte
	var err error
	if path == "" || path == "-" {
		b, err = io.ReadAll(os.Stdin)
	} else {
		b, err = os.ReadFile(path)
	}
	return string(b), err
}

// ScheduleSource schedules every loop of src as one batch. A malformed loop
// fails file-level parsing outright, so src is then resubmitted one loop
// chunk at a time: the bad loop fails alone, in its LoopResult, and the
// rest of the batch still runs. Input of one chunk that does not parse
// returns the parse error.
func ScheduleSource(src string, opt doacross.BatchOptions) (*doacross.Batch, error) {
	file, err := doacross.ParseSource(src)
	if err == nil {
		return doacross.ScheduleAllLoops(file.Loops, opt)
	}
	if chunks := splitLoops(src); len(chunks) > 1 {
		return doacross.ScheduleAll(chunks, opt)
	}
	return nil, err
}

// splitLoops cuts a source file into per-loop chunks on ENDDO lines, so a
// loop that cannot parse can be isolated from its neighbours.
func splitLoops(src string) []string {
	var out []string
	var cur []string
	flush := func() {
		chunk := strings.Join(cur, "\n")
		if strings.TrimSpace(chunk) != "" {
			out = append(out, chunk)
		}
		cur = nil
	}
	for _, line := range strings.Split(src, "\n") {
		cur = append(cur, line)
		if strings.EqualFold(strings.TrimSpace(line), "ENDDO") {
			flush()
		}
	}
	flush()
	return out
}
