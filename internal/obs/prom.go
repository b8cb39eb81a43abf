package obs

import (
	"fmt"
	"io"
	"strconv"
)

// Prom writes the Prometheus text exposition format (version 0.0.4) to W:
// the one writer behind every /metrics body, the pipeline's doacross_*
// families and scheduld's scheduld_* ones alike. Write errors are dropped:
// the only writer is an HTTP response, which has no one to report them to.
type Prom struct{ W io.Writer }

// Family writes a metric family's HELP and TYPE lines; typ is "counter",
// "gauge" or "histogram".
func (p Prom) Family(name, typ, help string) {
	fmt.Fprintf(p.W, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Int writes one integer sample. labels alternate label names and values.
func (p Prom) Int(name string, v int64, labels ...string) {
	fmt.Fprintf(p.W, "%s%s %d\n", name, labelSet(labels), v)
}

// Float writes one float sample in the shortest form that parses back to v.
func (p Prom) Float(name string, v float64, labels ...string) {
	fmt.Fprintf(p.W, "%s%s %g\n", name, labelSet(labels), v)
}

// Counter writes a counter family of one unlabelled sample.
func (p Prom) Counter(name, help string, v int64) {
	p.Family(name, "counter", help)
	p.Int(name, v)
}

// Gauge writes a gauge family of one unlabelled sample.
func (p Prom) Gauge(name, help string, v int64) {
	p.Family(name, "gauge", help)
	p.Int(name, v)
}

// labelSet renders name/value pairs as {name="value",...}, each value
// quoted by strconv.Quote, or "" when there are none.
func labelSet(labels []string) string {
	if len(labels) < 2 {
		return ""
	}
	b := []byte{'{'}
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, labels[i]...)
		b = append(b, '=')
		b = strconv.AppendQuote(b, labels[i+1])
	}
	return string(append(b, '}'))
}
