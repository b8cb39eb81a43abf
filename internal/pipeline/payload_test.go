package pipeline

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/exact"
	"doacross/internal/passes"
	"doacross/internal/scheditest"
)

// payloadCorpus is every payload the reader is held to encoding/json on:
// the fixture tier, tiers persisted from wide-corpus loops under the
// default options, Options.Best and the exact backend, and json.Marshal
// output of synthetic payloads whose strings need escaping. It is built
// once per test binary.
var payloadCorpus struct {
	once     sync.Once
	payloads map[string][]byte // by a label naming the payload's origin
	err      error
}

// diskPayloads returns payloadCorpus's payloads.
func diskPayloads(tb testing.TB) map[string][]byte {
	tb.Helper()
	payloadCorpus.once.Do(func() {
		payloadCorpus.payloads, payloadCorpus.err = buildPayloadCorpus(tb)
	})
	if payloadCorpus.err != nil {
		tb.Fatal(payloadCorpus.err)
	}
	return payloadCorpus.payloads
}

func buildPayloadCorpus(tb testing.TB) (map[string][]byte, error) {
	out := map[string][]byte{}
	collect := func(origin string, store *DiskStore) error {
		keys, err := store.Keys()
		if err != nil {
			return err
		}
		for _, k := range keys {
			payload, err := store.Get(k)
			if err != nil {
				return err
			}
			out[fmt.Sprintf("%s/%x", origin, k[:6])] = payload
		}
		return nil
	}
	// The fixture tier is read in place: opening it as a store would add a
	// quarantine directory to it.
	err := filepath.WalkDir(fixtureTier, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		payload, err := decodeEntry(dfg.Fingerprint{}, path, data)
		out["fixture/"+d.Name()[:12]] = payload
		return err
	})
	if err != nil {
		return nil, err
	}

	var reqs []Request
	for i, c := range scheditest.WideCorpus(tb, filepath.Join("..", "..", "testdata", "kernels"), 12) {
		if i%2 == 0 {
			reqs = append(reqs, Request{Name: c.Name, Source: c.Graph.Prog.Sync.Base.String()})
		}
	}
	for _, tier := range []struct {
		origin string
		opt    Options
	}{
		{"default", Options{}},
		{"best", Options{Best: true}},
		{"exact", Options{Compile: passes.Options{Backend: "exact", Exact: exact.Options{MaxNodes: 20_000}}}},
	} {
		store, err := OpenDiskStore(tb.TempDir())
		if err != nil {
			return nil, err
		}
		tier.opt.Disk = store
		if _, err := Run(reqs, tier.opt); err != nil {
			return nil, err
		}
		if store.Len() == 0 {
			return nil, fmt.Errorf("%s tier persisted nothing", tier.origin)
		}
		if err := collect(tier.origin, store); err != nil {
			return nil, err
		}
	}

	for i, p := range syntheticPayloads() {
		payload, err := json.Marshal(p)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("synthetic/%d", i)] = payload
	}
	return out, nil
}

// syntheticPayloads are payloads no run writes: every field set, strings
// that json.Marshal escapes or replaces (HTML characters, quotes,
// backslashes, control characters, U+2028, non-ASCII text, surrogate-range
// and invalid UTF-8), empty and null rows, and integers at their bounds.
func syntheticPayloads() []diskPayload {
	strs := []string{
		"",
		`<script>alert("x&y")</script>`,
		`back\slash "quoted" and /slash`,
		"tab\tnewline\ncr\rbell\afeed\fnul\x00esc\x1b",
		"line separator paragraph",
		"Größe, 信号, émigré, 🚀",
		"invalid \xff\xfe utf-8 \xc3( and \xed\xa0\x80 a surrogate",
		"� already replaced",
		strings.Repeat("é<", 300),
	}
	sched := func(rows ...[]int) *diskSchedule { return &diskSchedule{Method: "m", Rows: rows} }
	var out []diskPayload
	for i, s := range strs {
		p := diskPayload{
			Name: s, Source: "DO I = 1, N\n" + s + "\nENDDO", CompileSalt: s, SchedSalt: "sched",
			Machine: dlx.Standard(1+i%4, 1+i%2), N: 1 + i, Window: i % 3, Backend: "exact",
			List:       sched([]int{0, 1}, nil, []int{2}),
			Sync:       &diskSchedule{Method: s, Rows: [][]int{{2, 1, 0}}},
			PredictedT: i, Note: s,
			Times: timeCounters{ListTime: i, SyncTime: -i, BestTime: math.MaxInt, ListSignals: math.MinInt},
		}
		switch i % 3 {
		case 0:
			p.Best = sched([]int{}, []int{0, 1, 2})
			p.Optimal, p.LowerBound, p.SearchNodes = true, 7, math.MaxInt64
		case 1:
			p.Best = &diskSchedule{Method: "best", Rows: [][]int{}}
			p.PredictedAt, p.SearchNodes = 100, math.MinInt64
		case 2:
			p.List.Rows, p.Sync.Rows = nil, [][]int{nil, {}}
		}
		out = append(out, p)
	}
	return append(out, diskPayload{}, diskPayload{List: &diskSchedule{}, Sync: &diskSchedule{Rows: [][]int{}}})
}

// readAgreesWithJSON reports, for one payload, how the reader and
// encoding/json disagree, or "" when they do not: a payload the reader
// accepts must be accepted by json.Unmarshal into a reflect.DeepEqual
// payload.
func readAgreesWithJSON(r *payloadReader, data []byte) (accepted bool, disagreement string) {
	var got diskPayload
	if r.read(data, &got) != nil {
		return false, ""
	}
	var want diskPayload
	if err := json.Unmarshal(data, &want); err != nil {
		return true, fmt.Sprintf("the reader accepts a payload encoding/json rejects (%v)", err)
	}
	if !reflect.DeepEqual(got, want) {
		return true, fmt.Sprintf("the reader reads %+v, encoding/json %+v", got, want)
	}
	return true, ""
}

// TestDiskPayloadMatchesJSON holds the disk tier's reader to encoding/json
// on every payload of payloadCorpus: each is json.Marshal output, so the
// reader must accept it and read what json.Unmarshal reads, byte for byte
// and nil for nil. One reader reads them all, as a pooled reader does.
// Hand-edited payloads check the other half of the contract: what the
// reader rejects and encoding/json accepts is only ever something the
// writer never writes.
func TestDiskPayloadMatchesJSON(t *testing.T) {
	payloads := diskPayloads(t)
	origins := map[string]int{}
	r := new(payloadReader)
	for label, data := range payloads {
		origins[label[:strings.IndexByte(label, '/')]]++
		if ok, why := readAgreesWithJSON(r, data); !ok || why != "" {
			t.Errorf("%s: accepted=%v %s\n%s", label, ok, why, data)
		}
	}
	for _, origin := range []string{"fixture", "default", "best", "exact", "synthetic"} {
		if origins[origin] == 0 {
			t.Errorf("no %s payloads", origin)
		}
	}
	t.Logf("%d payloads by origin: %v", len(payloads), origins)

	// Edits of the fixture's hydro payload, each with whether the reader
	// accepts it.
	base := string(payloads["fixture/18307c97b8d0"])
	edits := []struct {
		name, old, new string
		accept         bool
	}{
		{"whitespace between tokens", `,"n":`, " ,\n\t\"n\" :\r ", true},
		{"repeated key", `{"name":`, `{"window":0,"name":`, false},
		{"null best", `"predicted_t":`, `"best":null,"predicted_t":`, true},
		{"fraction", `"n":100`, `"n":100.0`, false},
		{"exponent", `"n":100`, `"n":1e2`, false},
		{"leading zero", `"n":100`, `"n":0100`, false},
		{"overflow", `"n":100`, `"n":9223372036854775808`, false},
		{"overflow of 64 bits", `"n":100`, `"n":18446744073709551617`, false},
		{"negative overflow", `"window":0`, `"window":-9223372036854775809`, false},
		{"minimum int", `"window":0`, `"window":-9223372036854775808`, true},
		{"negative zero", `"window":0`, `"window":-0`, true},
		{"string for integer", `"n":100`, `"n":"100"`, false},
		{"null for integer", `"n":100`, `"n":null`, false},
		{"unknown key", `"n":100`, `"n":100,"extra":1`, false},
		{"case-folded key", `"n":100`, `"N":100`, false},
		{"escaped key", `"n":100`, `"\u006e":100`, false},
		{"missing required key", `"window":0,`, ``, false},
		{"trailing comma", `"n":100,`, `"n":100,,`, false},
		{"trailing bytes", `}}`, `}} x`, false},
		{"trailing whitespace", `}}`, "}}\n", true},
		{"empty row", `null`, `[]`, true},
		{"row of the wrong type", `null`, `{}`, false},
		{"short unit classes", `"Units":[1,1,1,1,1,1,0]`, `"Units":[1,1,1,1,1,1]`, false},
		{"long unit classes", `"Units":[1,1,1,1,1,1,0]`, `"Units":[1,1,1,1,1,1,0,0]`, false},
		{"escapes", `"name":"`, `"name":"\"\\\/\b\f\n\r\t\u00e9é\ud83d\ude80🚀`, true},
		{"lone surrogates", `"name":"`, `"name":"\ud800x\udc00A\ud800\u0041\ud83d\ud83d\ude80\udbff`, true},
		{"single-quote escape", `"name":"`, `"name":"\'`, false},
		{"short unicode escape", `"name":"`, `"name":"\u12"`, false},
		{"control byte in a string", `"name":"`, "\"name\":\"\x01", false},
		{"invalid UTF-8", `"name":"`, "\"name\":\"\xff\xc3(\xed\xa0\x80", true},
		{"fractional search nodes", `"times":`, `"search_nodes":1.5,"times":`, false},
	}
	if base == "" {
		t.Fatal("the fixture tier holds no hydro payload")
	}
	for _, e := range edits {
		if !strings.Contains(base, e.old) {
			t.Fatalf("%s: the fixture payload holds no %q", e.name, e.old)
		}
		data := []byte(strings.Replace(base, e.old, e.new, 1))
		ok, why := readAgreesWithJSON(r, data)
		if why != "" {
			t.Errorf("%s: %s", e.name, why)
		}
		if ok != e.accept {
			t.Errorf("%s: reader accepts = %v, want %v\n%s", e.name, ok, e.accept, data)
		}
	}

	// Members in another order: encoding/json writes a map's keys sorted.
	var members map[string]json.RawMessage
	if err := json.Unmarshal([]byte(base), &members); err != nil {
		t.Fatal(err)
	}
	sorted, err := json.Marshal(members)
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := readAgreesWithJSON(r, sorted); !ok || why != "" {
		t.Errorf("sorted members: accepted=%v %s\n%s", ok, why, sorted)
	}
}

// FuzzDiskPayload asserts both halves of the reader's contract on
// arbitrary bytes, seeded from payloadCorpus: a payload the reader accepts
// is one json.Unmarshal accepts, into a reflect.DeepEqual payload; and
// whatever json.Unmarshal decodes, json.Marshal writes back as bytes the
// reader accepts and reads as json.Unmarshal reads them.
func FuzzDiskPayload(f *testing.F) {
	for _, data := range diskPayloads(f) {
		f.Add(data)
	}
	r := new(payloadReader)
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, why := readAgreesWithJSON(r, data); why != "" {
			t.Fatalf("%s\n%q", why, data)
		}
		var p diskPayload
		if json.Unmarshal(data, &p) != nil {
			return
		}
		written, err := json.Marshal(p)
		if err != nil {
			t.Fatal(err)
		}
		if ok, why := readAgreesWithJSON(r, written); !ok || why != "" {
			t.Fatalf("json.Marshal output: accepted=%v %s\n%s", ok, why, written)
		}
	})
}
