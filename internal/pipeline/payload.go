package pipeline

import (
	"errors"
	"math"
	"slices"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"doacross/internal/dlx"
)

// payloadReader reads the JSON that json.Marshal writes for a diskPayload,
// without reflection: one pass over the bytes, keys matched against the
// struct tags without allocating, and the issue rows of all three schedules
// read into storage the reader keeps from one payload to the next.
//
// Its contract is encoding/json's behaviour. Whenever read accepts a
// payload, json.Unmarshal accepts it too and yields a reflect.DeepEqual
// diskPayload; read accepts every payload json.Marshal(diskPayload) can
// produce. It is stricter than encoding/json where the writer never goes:
// it rejects unknown, repeated, escaped or case-folded keys, a missing key
// without omitempty, null where the writer puts no pointer or slice, an
// array of another length than dlx.NumClasses, and any number that is not
// an integer in range. Strings are unescaped exactly as encoding/json
// unescapes them, invalid UTF-8 and lone surrogates included.
type payloadReader struct {
	buf []byte
	off int
	// sched holds the payload's list, sync and best schedules, and rows
	// and ints hold their issue rows. All three are reused by the next
	// read, so a payload's schedules are valid only until then: rebuild
	// copies the rows a restored schedule keeps.
	sched  [3]diskSchedule
	scheds int // entries of sched in use
	rows   [][]int
	ints   []int
	// str holds a string while its escapes are decoded.
	str []byte
}

// payloadReaders recycles readers across the entries of LoadDisk.
var payloadReaders = sync.Pool{New: func() any { return new(payloadReader) }}

// errPayload rejects a payload; LoadDisk quarantines it.
var errPayload = errors.New("pipeline: malformed disk payload")

// The member keys of each object: diskPayload's struct tags, its required
// ones (those without omitempty) first, and the field names of the types
// that carry no tags.
var (
	payloadKeys = []string{"name", "source", "compile_salt", "sched_salt", "exact_salt",
		"machine", "n", "window", "backend", "list", "sync", "predicted_t", "times",
		"best", "predicted_at_n", "optimal", "lower_bound", "search_nodes", "note"}
	payloadRequired = 13
	scheduleKeys    = []string{"method", "rows"}
	machineKeys     = []string{"Name", "Issue", "Units", "Latency"}
	timesKeys       = []string{"ListTime", "SyncTime", "BestTime", "ListStalls", "SyncStalls",
		"ListLBD", "SyncLBD", "ListLFD", "SyncLFD", "ListSignals", "SyncSignals"}
)

// read decodes data into p, which must be the zero diskPayload.
func (r *payloadReader) read(data []byte, p *diskPayload) error {
	r.buf, r.off = data, 0
	r.scheds, r.rows, r.ints = 0, r.rows[:0], r.ints[:0]
	err := r.object(payloadKeys, payloadRequired, func(key string) error {
		var err error
		switch key {
		case "name":
			p.Name, err = r.string()
		case "source":
			p.Source, err = r.string()
		case "compile_salt":
			p.CompileSalt, err = r.string()
		case "sched_salt":
			p.SchedSalt, err = r.string()
		case "exact_salt":
			p.ExactSalt, err = r.string()
		case "machine":
			err = r.machine(&p.Machine)
		case "n":
			p.N, err = r.int()
		case "window":
			p.Window, err = r.int()
		case "backend":
			p.Backend, err = r.string()
		case "list":
			p.List, err = r.schedule()
		case "sync":
			p.Sync, err = r.schedule()
		case "best":
			p.Best, err = r.schedule()
		case "predicted_t":
			p.PredictedT, err = r.int()
		case "predicted_at_n":
			p.PredictedAt, err = r.int()
		case "optimal":
			p.Optimal, err = r.bool()
		case "lower_bound":
			p.LowerBound, err = r.int()
		case "search_nodes":
			p.SearchNodes, err = r.int64()
		case "note":
			p.Note, err = r.string()
		case "times":
			err = r.times(&p.Times)
		}
		return err
	})
	r.skipSpace()
	if r.off != len(r.buf) {
		err = errPayload
	}
	r.buf = nil // the pool keeps no payload alive
	return err
}

// object reads a JSON object whose member keys are among keys, each at
// most once, with the first required of them present. For each member it
// calls value with the matching element of keys, the reader positioned at
// the member's value.
func (r *payloadReader) object(keys []string, required int, value func(key string) error) error {
	if !r.token('{') {
		return errPayload
	}
	var seen uint64
	if !r.token('}') {
		for {
			k, ok := r.key()
			i := 0
			for i < len(keys) && string(k) != keys[i] {
				i++
			}
			if !ok || i == len(keys) || seen&(1<<i) != 0 || !r.token(':') {
				return errPayload
			}
			seen |= 1 << i
			if err := value(keys[i]); err != nil {
				return err
			}
			if r.token('}') {
				break
			}
			if !r.token(',') {
				return errPayload
			}
		}
	}
	if all := uint64(1)<<required - 1; seen&all != all {
		return errPayload
	}
	return nil
}

// array reads a JSON array, calling elem for each element with the reader
// positioned at it.
func (r *payloadReader) array(elem func() error) error {
	if !r.token('[') {
		return errPayload
	}
	if r.token(']') {
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		if r.token(']') {
			return nil
		}
		if !r.token(',') {
			return errPayload
		}
	}
}

// schedule reads a diskSchedule or null. The schedule is one of r.sched,
// its rows are slices of r.ints and its row list a slice of r.rows, each
// capacity-capped, so the reader's later appends never reach them.
func (r *payloadReader) schedule() (*diskSchedule, error) {
	if r.null() {
		return nil, nil
	}
	d := &r.sched[r.scheds] // object rejects a repeated key, so three suffice
	r.scheds++
	*d = diskSchedule{}
	return d, r.object(scheduleKeys, len(scheduleKeys), func(key string) error {
		if key == "method" {
			var err error
			d.Method, err = r.string()
			return err
		}
		if r.null() {
			return nil
		}
		first := len(r.rows)
		err := r.array(func() error {
			if r.null() {
				r.rows = append(r.rows, nil)
				return nil
			}
			start := len(r.ints)
			err := r.array(func() error {
				v, err := r.int()
				r.ints = append(r.ints, v)
				return err
			})
			// An empty row is not nil, as encoding/json leaves it.
			row := []int{}
			if len(r.ints) > start {
				row = r.ints[start:len(r.ints):len(r.ints)]
			}
			r.rows = append(r.rows, row)
			return err
		})
		d.Rows = [][]int{}
		if len(r.rows) > first {
			d.Rows = r.rows[first:len(r.rows):len(r.rows)]
		}
		return err
	})
}

// machine reads a dlx.Config.
func (r *payloadReader) machine(c *dlx.Config) error {
	return r.object(machineKeys, len(machineKeys), func(key string) error {
		var err error
		switch key {
		case "Name":
			c.Name, err = r.string()
		case "Issue":
			c.Issue, err = r.int()
		case "Units":
			err = r.classes(&c.Units)
		case "Latency":
			err = r.classes(&c.Latency)
		}
		return err
	})
}

// classes reads exactly one integer per unit class.
func (r *payloadReader) classes(a *[dlx.NumClasses]int) error {
	i := 0
	err := r.array(func() error {
		if i == len(a) {
			return errPayload
		}
		var err error
		a[i], err = r.int()
		i++
		return err
	})
	if err == nil && i != len(a) {
		err = errPayload
	}
	return err
}

// times reads the simulated counters, in timesKeys' order.
func (r *payloadReader) times(t *timeCounters) error {
	fields := [...]*int{&t.ListTime, &t.SyncTime, &t.BestTime, &t.ListStalls, &t.SyncStalls,
		&t.ListLBD, &t.SyncLBD, &t.ListLFD, &t.SyncLFD, &t.ListSignals, &t.SyncSignals}
	return r.object(timesKeys, len(timesKeys), func(key string) error {
		var err error
		*fields[slices.Index(timesKeys, key)], err = r.int()
		return err
	})
}

// skipSpace skips JSON whitespace.
func (r *payloadReader) skipSpace() {
	for r.off < len(r.buf) {
		switch r.buf[r.off] {
		case ' ', '\t', '\n', '\r':
			r.off++
		default:
			return
		}
	}
}

// token consumes c, after any whitespace, if it is next.
func (r *payloadReader) token(c byte) bool {
	r.skipSpace()
	if r.off < len(r.buf) && r.buf[r.off] == c {
		r.off++
		return true
	}
	return false
}

// literal consumes lit, after any whitespace, if it is next.
func (r *payloadReader) literal(lit string) bool {
	r.skipSpace()
	if len(r.buf)-r.off >= len(lit) && string(r.buf[r.off:r.off+len(lit)]) == lit {
		r.off += len(lit)
		return true
	}
	return false
}

// null consumes a null if it is next.
func (r *payloadReader) null() bool { return r.literal("null") }

// bool reads true or false.
func (r *payloadReader) bool() (bool, error) {
	switch {
	case r.literal("true"):
		return true, nil
	case r.literal("false"):
		return false, nil
	}
	return false, errPayload
}

// key reads a member key. Every key the writer emits is a struct tag or a
// field name, so a key holding an escape or a byte outside printable ASCII
// matches none and is rejected.
func (r *payloadReader) key() ([]byte, bool) {
	if !r.token('"') {
		return nil, false
	}
	for i := r.off; i < len(r.buf); i++ {
		switch c := r.buf[i]; {
		case c == '"':
			k := r.buf[r.off:i]
			r.off = i + 1
			return k, true
		case c == '\\' || c < ' ' || c >= utf8.RuneSelf:
			return nil, false
		}
	}
	return nil, false
}

// int reads an integer that fits an int.
func (r *payloadReader) int() (int, error) {
	v, err := r.int64()
	if err != nil || int64(int(v)) != v {
		return 0, errPayload
	}
	return int(v), nil
}

// int64 reads an integer in int64's range, written as JSON writes one. A
// fraction or an exponent is left unread, so the caller's next token
// rejects it, as strconv.ParseInt rejects it for encoding/json.
func (r *payloadReader) int64() (int64, error) {
	neg := r.token('-')
	start := r.off
	var u uint64
	for ; r.off < len(r.buf) && '0' <= r.buf[r.off] && r.buf[r.off] <= '9'; r.off++ {
		d := uint64(r.buf[r.off] - '0')
		if u > (math.MaxUint64-d)/10 {
			return 0, errPayload
		}
		u = u*10 + d
	}
	switch digits := r.off - start; {
	case digits == 0 || digits > 1 && r.buf[start] == '0':
		return 0, errPayload
	case neg && u <= 1<<63:
		return -int64(u), nil // -(1<<63) wraps to itself, math.MinInt64
	case !neg && u < 1<<63:
		return int64(u), nil
	}
	return 0, errPayload
}

// string reads a JSON string. A string with nothing to decode costs one
// copy; any other is decoded as encoding/json decodes it.
func (r *payloadReader) string() (string, error) {
	if !r.token('"') {
		return "", errPayload
	}
	start, i := r.off, r.off
	for i < len(r.buf) {
		c := r.buf[i]
		if c == '"' {
			r.off = i + 1
			return string(r.buf[start:i]), nil
		}
		if c == '\\' || c < ' ' {
			break
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		rr, size := utf8.DecodeRune(r.buf[i:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	b, ok := r.unescape(append(r.str[:0], r.buf[start:i]...), i)
	r.str = b[:0]
	if !ok {
		return "", errPayload
	}
	return string(b), nil
}

// unescape decodes the rest of the string whose content from offset i on
// has not been read, appending it to b, and consumes its closing quote.
// As in encoding/json, escapes follow RFC 8259, a surrogate pair decodes
// to one rune, and a lone surrogate and each byte of invalid UTF-8 become
// U+FFFD.
func (r *payloadReader) unescape(b []byte, i int) ([]byte, bool) {
	for i < len(r.buf) {
		switch c := r.buf[i]; {
		case c == '"':
			r.off = i + 1
			return b, true
		case c < ' ':
			return b, false
		case c == '\\':
			if i+1 == len(r.buf) {
				return b, false
			}
			switch e := r.buf[i+1]; e {
			case '"', '\\', '/':
				b = append(b, e)
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(r.buf[i:])
				if rr < 0 {
					return b, false
				}
				i += 6
				if utf16.IsSurrogate(rr) {
					// An escape after a lone surrogate is decoded on its own.
					if dec := utf16.DecodeRune(rr, hex4(r.buf[i:])); dec != unicode.ReplacementChar {
						i += 6
						rr = dec
					} else {
						rr = unicode.ReplacementChar
					}
				}
				b = utf8.AppendRune(b, rr)
				continue
			default:
				return b, false
			}
			i += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			i++
		default:
			rr, size := utf8.DecodeRune(r.buf[i:])
			b = utf8.AppendRune(b, rr)
			i += size
		}
	}
	return b, false
}

// hex4 decodes the \uXXXX escape at the start of s, or returns -1.
func hex4(s []byte) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	var v rune
	for _, c := range s[2:6] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		v = v<<4 | rune(c)
	}
	return v
}
