package matio

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"sea/internal/core"
	"sea/internal/problems"
)

// oracleDecode is the decoder DecodeProblem must reproduce.
func oracleDecode(data []byte) (*Problem, error) {
	var p Problem
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&p); err != nil {
		return nil, err
	}
	return &p, nil
}

// problemDiff describes the first field where got and want differ, or
// returns "". Floats compare by bit pattern and slices by nil-ness as well
// as contents, so -0, NaN payloads and nil-versus-empty all count.
func problemDiff(got, want *Problem) string {
	gv, wv := reflect.ValueOf(got).Elem(), reflect.ValueOf(want).Elem()
	for k := 0; k < gv.NumField(); k++ {
		name := gv.Type().Field(k).Name
		g, w := gv.Field(k), wv.Field(k)
		switch g.Kind() {
		case reflect.String, reflect.Int:
			if !g.Equal(w) {
				return fmt.Sprintf("%s: got %v, want %v", name, g, w)
			}
		case reflect.Slice:
			if g.IsNil() != w.IsNil() || g.Len() != w.Len() {
				return fmt.Sprintf("%s: got %v (nil %t), want %v (nil %t)", name, g, g.IsNil(), w, w.IsNil())
			}
			for i := 0; i < g.Len(); i++ {
				ge, we := g.Index(i), w.Index(i)
				same := ge.Kind() == reflect.Int && ge.Int() == we.Int() ||
					ge.Kind() == reflect.Float64 && math.Float64bits(ge.Float()) == math.Float64bits(we.Float())
				if !same {
					return fmt.Sprintf("%s: got %v, want %v", name, g, w)
				}
			}
		default:
			return name + ": field kind " + g.Kind().String() + " not compared"
		}
	}
	return ""
}

// nested wraps inner in depth containers of the given open/close pair.
func nested(open, close, inner string, depth int) string {
	return strings.Repeat(open, depth) + inner + strings.Repeat(close, depth)
}

// decodeSeeds are the hand-written corners of encoding/json's decoding
// that DecodeProblem must reproduce.
func decodeSeeds() []string {
	return []string{
		// Key matching: exact, case-folded (ASCII and the Unicode folds
		// ſ→s, K→k), escaped, and exact-versus-folded duplicates.
		`{"X0":[1],"M":1,"KIND":"fixed"}`,
		`{"ſ0":[1,2],"x0":[3]}`,
		`{"x0":[1]}`,
		`{"x0":[4],"Kind":"elastic"}`,
		`{"Kind":"a","kind":"b","KIND":"c"}`,
		`{"x0 ":[1],"x00":[2],"":[3]}`,
		"{\"x\xff\":[1]}",
		// Duplicate keys: last wins, reusing the earlier slice's backing
		// array, so a null element keeps what an earlier array stored there.
		`{"x0":[1,2,3],"x0":[9],"x0":[null,null,null]}`,
		`{"x0":[1,2,3,4,5],"x0":[7],"x0":[null,null,null,null,null,null,null]}`,
		`{"x0":[1,2,3],"x0":null,"x0":[null,null]}`,
		`{"x0":[1,2,3],"x0":[],"x0":[null,null]}`,
		`{"rows":[1,2,3,4,5],"rows":[7],"rows":[null,null,null,null,null,null]}`,
		`{"x0":[null],"gamma":[null,2],"s0":[]}`,
		`{"kind":"fixed","kind":null,"m":3,"m":null,"x0":null}`,
		// Unknown fields: skipped but validated, to encoding/json's depth.
		`{"u":{"a":[1,{"b":null}],"c":"d"},"x0":[1]}`,
		`{"u":` + nested("[", "]", "", 9998) + `,"m":1}`,
		`{"u":` + nested("[", "]", "", 9999) + `,"m":1}`,
		`{"u":` + nested("[", "]", "", 10000) + `,"m":1}`,
		`{"u":` + nested(`{"a":`, "}", "1", 9999) + `}`,
		`{"u":` + nested(`{"a":`, "}", "1", 10000) + `}`,
		`{"u":[1,]}`,
		`{"u":{"a"}}`,
		`{"u":{"a":1,}}`,
		`{"u":{1:2}}`,
		`{"u":[}`,
		`{"u":"\q"}`,
		`{"u":tru}`,
		`{"u":nul,"m":1}`,
		// What surrounds the first value.
		`{"m":1} trailing garbage`,
		`{}{`,
		"\xef\xbb\xbf{}",
		``,
		" \n\t",
		`null`,
		`null x`,
		`nullx`,
		`nul`,
		`true`,
		`1`,
		`"s"`,
		`[]`,
		` {"m":2} `,
		`{`,
		`{"m":1`,
		`{"m"`,
		`{,}`,
		`{"a":1,}`,
		`{"a" 1}`,
		`{'a':1}`,
		// Number grammar, in a float array and in an unknown field.
		`{"x0":[01]}`, `{"x0":[+1]}`, `{"x0":[.5]}`, `{"x0":[1.]}`, `{"x0":[-]}`,
		`{"x0":[1e400]}`, `{"x0":[-1e400]}`, `{"x0":[1e-400]}`, `{"x0":[-0]}`,
		`{"x0":[1E+2,1e-2,0.0e-0,-0.5E5]}`, `{"x0":[1e]}`, `{"x0":[1e+]}`,
		`{"x0":[0x10]}`, `{"x0":[Infinity]}`, `{"x0":[NaN]}`, `{"x0":[1_0]}`,
		`{"u":01}`, `{"u":1.}`, `{"u":-}`, `{"u":.5}`, `{"u":1e400}`,
		// Integers for m and rows.
		`{"m":1.0}`, `{"m":-0}`, `{"m":9223372036854775807}`, `{"m":9223372036854775808}`,
		`{"m":-9223372036854775808}`, `{"m":-9223372036854775809}`, `{"m":1e2}`,
		`{"rows":[1.0]}`, `{"rows":[-0,0,1]}`, `{"rows":[9223372036854775808]}`,
		// Strings: invalid UTF-8, control characters and escapes in kind.
		"{\"kind\":\"\xff\xfe\"}",
		"{\"kind\":\"a\x01b\"}",
		"{\"kind\":\"a\x7fb\"}",
		`{"kind":"é\n\"\\\/"}`,
		`{"kind":"\ud800"}`,
		`{"kind":"é"}`,
		`{"kind":"\u12"}`,
		`{"kind":"abc`,
		// Values of the wrong type for their field.
		`{"kind":1}`, `{"kind":[]}`, `{"kind":true}`, `{"m":"1"}`, `{"m":[1]}`, `{"m":true}`,
		`{"x0":{}}`, `{"x0":[[1]]}`, `{"x0":["1"]}`, `{"x0":[true]}`, `{"x0":1}`, `{"x0":"a"}`,
		`{"x0":[1,]}`, `{"x0":[,1]}`, `{"x0":[1 2]}`, `{"x0":[nul]}`,
	}
}

// FuzzDecodeProblem holds DecodeProblem to encoding/json's decoding of the
// same bytes: the same accept/reject outcome, and bit-identical fields with
// nil and empty slices distinct whenever both accept.
func FuzzDecodeProblem(f *testing.F) {
	for _, s := range readProblemSeeds(f) {
		f.Add(s)
	}
	for _, s := range decodeSeeds() {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeProblem(bytes.NewReader(data))
		want, werr := oracleDecode(data)
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeProblem error %v, encoding/json error %v\ninput: %q", err, werr, data)
		}
		if err != nil {
			return
		}
		if diff := problemDiff(got, want); diff != "" {
			t.Fatalf("%s\ninput: %q", diff, data)
		}
	})
}

// TestFieldTargetsCoverTags: every JSON tag on Problem reaches its own
// field through the decoder's field table.
func TestFieldTargetsCoverTags(t *testing.T) {
	var p Problem
	pv := reflect.ValueOf(&p).Elem()
	for k := 0; k < pv.NumField(); k++ {
		tag := strings.Split(pv.Type().Field(k).Tag.Get("json"), ",")[0]
		target := p.fieldTarget([]byte(tag))
		if target == nil || reflect.ValueOf(target).Pointer() != pv.Field(k).Addr().Pointer() {
			t.Errorf("tag %q does not reach field %s", tag, pv.Type().Field(k).Name)
		}
	}
}

func encodeProblem(t testing.TB, p *core.DiagonalProblem) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteProblemJSON(&buf, p); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestDecodeProblemDoesNotAliasInput: a decoded Problem shares no memory
// with the input bytes or the pooled read buffer, so overwriting the input
// and decoding another body through the same buffer leave it unchanged.
func TestDecodeProblemDoesNotAliasInput(t *testing.T) {
	jp := FromCore(problems.SparseTable1(9, 3, 5))
	jp.Objective = "entropy"
	first, err := json.Marshal(jp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := oracleDecode(first)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeProblem(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	for i := range first {
		first[i] = 'x'
	}
	second := encodeProblem(t, problems.Table1(12, 7))
	for i := 0; i < 4; i++ {
		if _, err := DecodeProblem(bytes.NewReader(second)); err != nil {
			t.Fatal(err)
		}
	}
	if diff := problemDiff(got, want); diff != "" {
		t.Fatalf("first problem changed after its input was reused: %s", diff)
	}
}

// TestDecodeProblemAllocs bounds one order-32 decode (the largest request
// order of the HTTP benchmark) with a warm buffer pool: the problem, its
// four arrays, the kind string and the reader. encoding/json needs 53.
func TestDecodeProblemAllocs(t *testing.T) {
	body := encodeProblem(t, problems.Table1(32, 1))
	if _, err := DecodeProblem(bytes.NewReader(body)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := DecodeProblem(bytes.NewReader(body)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("order-32 decode: %.1f allocs, want <= 16", allocs)
	}
}

// TestDecodeProblemDropsLargeBuffers: a read buffer that grew past
// maxPooledBuffer is not pooled, so one oversized body cannot pin its
// memory for the life of the process.
func TestDecodeProblemDropsLargeBuffers(t *testing.T) {
	large := make([]byte, 0, maxPooledBuffer+1)
	if releaseBuffer(&large) {
		t.Fatal("a buffer above maxPooledBuffer went back to the pool")
	}
	small := make([]byte, 0, maxPooledBuffer)
	if !releaseBuffer(&small) {
		t.Fatal("a buffer at maxPooledBuffer was not pooled")
	}

	body := `{"m":1,` + strings.Repeat(" ", 2*maxPooledBuffer) + `"n":2}`
	p, err := DecodeProblem(strings.NewReader(body))
	if err != nil || p.M != 1 || p.N != 2 {
		t.Fatalf("large body: %+v, %v", p, err)
	}
	for i := 0; i < 8; i++ {
		if bp := bufPool.Get().(*[]byte); cap(*bp) > maxPooledBuffer {
			t.Fatalf("pool holds a %d-byte buffer", cap(*bp))
		}
	}
}

// BenchmarkDecodeProblem is the unit-level guard for the problem reader:
// the HTTP benchmark's dense orders and one CSR body.
func BenchmarkDecodeProblem(b *testing.B) {
	for _, c := range []struct {
		name string
		p    *core.DiagonalProblem
	}{
		{"dense16", problems.Table1(16, 1)},
		{"dense24", problems.Table1(24, 1)},
		{"dense32", problems.Table1(32, 1)},
		{"csr200", problems.SparseTable1(200, 8, 1)},
	} {
		body := encodeProblem(b, c.p)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, err := DecodeProblem(bytes.NewReader(body)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
