package matio

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"unicode"
	"unicode/utf8"
)

// The problem reader is a one-pass scanner specialised to Problem: it reads
// the input into a pooled buffer, walks it once, and parses numeric arrays in
// place, validating the JSON grammar as it goes. Its contract is that of
// json.NewDecoder(bytes.NewReader(b)).Decode(&Problem) on the same bytes b —
// the same accept/reject outcome and bit-identical fields (nil and empty
// slices distinct, duplicate keys last-wins with encoding/json's slice
// reuse, exact-then-case-folded key matching, unknown fields skipped but
// validated to the same nesting limit, anything after the first top-level
// value ignored). FuzzDecodeProblem holds it to that contract with
// encoding/json as the oracle.

// maxNestingDepth is encoding/json's scanner limit on nested containers,
// counting the top-level object.
const maxNestingDepth = 10000

// maxPooledBuffer caps the input buffers kept for reuse: a larger one is
// dropped after its decode, so one oversized body cannot pin its memory.
const maxPooledBuffer = 1 << 20

var bufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// releaseBuffer returns bp to the pool unless it outgrew maxPooledBuffer,
// and reports whether it did.
func releaseBuffer(bp *[]byte) bool {
	if cap(*bp) > maxPooledBuffer {
		return false
	}
	*bp = (*bp)[:0]
	bufPool.Put(bp)
	return true
}

// DecodeProblem decodes the raw JSON container without converting it to a
// core problem, for callers that need request attributes (the objective
// family) alongside the problem data. Call ToCore to validate.
//
// It reads r to the end before decoding; a read error (an HTTP body over
// its size cap, say) fails the decode and is wrapped with %w. The decoded
// Problem shares no memory with the input.
func DecodeProblem(r io.Reader) (*Problem, error) {
	bp := bufPool.Get().(*[]byte)
	defer releaseBuffer(bp)
	b, err := readAll(r, (*bp)[:0])
	*bp = b
	if err != nil {
		return nil, fmt.Errorf("matio: %w", err)
	}
	p, err := decodeProblem(b)
	if err != nil {
		return nil, fmt.Errorf("matio: %w", err)
	}
	return p, nil
}

// readAll appends r's contents to b, as io.ReadAll does into a fresh slice.
func readAll(r io.Reader, b []byte) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err != nil {
			if err == io.EOF {
				return b, nil
			}
			return b, err
		}
	}
}

// decodeProblem decodes the first JSON value of b into a Problem.
// Everything encoding/json reports — a syntax error anywhere in that value,
// or a value of the wrong type for its field — is an error here too; the
// decoder stops at the first one, since no later byte can undo it.
func decodeProblem(b []byte) (*Problem, error) {
	d := decoder{b: b}
	d.skipSpace()
	if d.i == len(b) {
		return nil, io.EOF
	}
	p := new(Problem)
	switch b[d.i] {
	case '{':
		if err := d.object(p); err != nil {
			return nil, err
		}
	case 'n':
		// A top-level null decodes to the zero container.
		if err := d.literal("null"); err != nil {
			return nil, err
		}
	default:
		return nil, errors.New("problem JSON is not an object")
	}
	return p, nil
}

// decoder is a cursor over one input.
type decoder struct {
	b []byte
	i int
}

func (d *decoder) skipSpace() {
	b, i := d.b, d.i
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	d.i = i
}

// peek returns the next byte, or 0 at the end of input (never valid JSON).
func (d *decoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *decoder) syntaxError(context string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input %s", context)
	}
	return fmt.Errorf("invalid character %q %s (offset %d)", d.b[d.i], context, d.i)
}

// expect consumes the next byte if it is c, after optional white space.
func (d *decoder) expect(c byte, context string) error {
	d.skipSpace()
	if d.peek() != c {
		return d.syntaxError(context)
	}
	d.i++
	return nil
}

func (d *decoder) literal(lit string) error {
	for k := 0; k < len(lit); k++ {
		if d.peek() != lit[k] {
			return d.syntaxError("in literal " + lit)
		}
		d.i++
	}
	return nil
}

// number consumes one number in strict JSON grammar
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and returns its bytes,
// so that ParseFloat/ParseInt never see a form JSON does not allow.
func (d *decoder) number() ([]byte, error) {
	start := d.i
	if d.peek() == '-' {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		d.skipDigits()
	default:
		return nil, d.syntaxError("in numeric literal")
	}
	if d.peek() == '.' {
		d.i++
		if !d.skipDigits() {
			return nil, d.syntaxError("after decimal point in numeric literal")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if !d.skipDigits() {
			return nil, d.syntaxError("in exponent of numeric literal")
		}
	}
	return d.b[start:d.i], nil
}

// skipDigits consumes a run of decimal digits and reports whether it was
// non-empty.
func (d *decoder) skipDigits() bool {
	b, start := d.b, d.i
	i := start
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	d.i = i
	return i > start
}

// str consumes one string literal and returns it, quotes included. plain
// reports that the text between the quotes is printable ASCII without
// escapes, so it is its own value; any other literal needs unquoting.
func (d *decoder) str() (lit []byte, plain bool, err error) {
	start := d.i
	d.i++ // opening quote
	plain = true
	for d.i < len(d.b) {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			return d.b[start:d.i], plain, nil
		case c < 0x20:
			return nil, false, d.syntaxError("in string literal")
		case c == '\\':
			plain = false
			d.i++
			switch d.peek() {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i++
			case 'u':
				d.i++
				for k := 0; k < 4; k++ {
					if !isHex(d.peek()) {
						return nil, false, d.syntaxError("in \\u hexadecimal character escape")
					}
					d.i++
				}
			default:
				return nil, false, d.syntaxError("in string escape code")
			}
		case c >= utf8.RuneSelf:
			plain = false
			d.i++
		default:
			d.i++
		}
	}
	return nil, false, d.syntaxError("in string literal")
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// unquote returns a string literal's value. Escaped or non-ASCII bodies are
// rare in problem files and go to encoding/json, which also replaces
// invalid UTF-8 by U+FFFD.
func unquote(lit []byte, plain bool) (string, error) {
	if plain {
		return string(lit[1 : len(lit)-1]), nil
	}
	var s string
	if err := json.Unmarshal(lit, &s); err != nil {
		return "", err
	}
	return s, nil
}

// object decodes the top-level object into p.
func (d *decoder) object(p *Problem) error {
	d.i++ // '{'
	d.skipSpace()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		d.skipSpace()
		if d.peek() != '"' {
			return d.syntaxError("looking for beginning of object key string")
		}
		lit, plain, err := d.str()
		if err != nil {
			return err
		}
		target, err := p.lookupField(lit, plain)
		if err != nil {
			return err
		}
		if err := d.expect(':', "after object key"); err != nil {
			return err
		}
		d.skipSpace()
		if err := d.value(target); err != nil {
			return err
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.syntaxError("after object key:value pair")
		}
	}
}

// fieldTarget returns a pointer to the field tagged name, or nil.
func (p *Problem) fieldTarget(name []byte) any {
	switch string(name) {
	case "kind":
		return &p.Kind
	case "objective":
		return &p.Objective
	case "m":
		return &p.M
	case "n":
		return &p.N
	case "storage":
		return &p.Storage
	case "rows":
		return &p.Rows
	case "cols":
		return &p.Cols
	case "x0":
		return &p.X0
	case "gamma":
		return &p.Gamma
	case "s0":
		return &p.S0
	case "d0":
		return &p.D0
	case "alpha":
		return &p.Alpha
	case "beta":
		return &p.Beta
	case "upper":
		return &p.Upper
	case "lower":
		return &p.Lower
	case "slo":
		return &p.SLo
	case "shi":
		return &p.SHi
	case "dlo":
		return &p.DLo
	case "dhi":
		return &p.DHi
	}
	return nil
}

// lookupField matches an object key to a field as encoding/json does: the
// exact tag first, then the tag under simple case folding. It returns nil
// for an unknown key.
func (p *Problem) lookupField(lit []byte, plain bool) (any, error) {
	key := lit[1 : len(lit)-1]
	if !plain {
		s, err := unquote(lit, plain)
		if err != nil {
			return nil, err
		}
		key = []byte(s)
	}
	if t := p.fieldTarget(key); t != nil {
		return t, nil
	}
	var buf [32]byte
	return p.fieldTarget(appendFoldedKey(buf[:0], key)), nil
}

// appendFoldedKey appends key with every rune replaced by the smallest rune
// of its simple-fold orbit — encoding/json's key folding — spelled in lower
// case to compare against the lower-case tags. Folded output never holds a
// lower-case ASCII letter, so the respelling keeps distinct keys distinct.
func appendFoldedKey(out, key []byte) []byte {
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			out = append(out, lowerASCII(c))
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		out = utf8.AppendRune(out, lowerASCII(r))
		i += n
	}
	return out
}

func lowerASCII[T rune | byte](c T) T {
	if 'A' <= c && c <= 'Z' {
		c += 'a' - 'A'
	}
	return c
}

// value decodes the next value into target, a field pointer from
// fieldTarget, or skips it when target is nil.
func (d *decoder) value(target any) error {
	switch t := target.(type) {
	case *string:
		return d.stringValue(t)
	case *int:
		return d.intValue(t)
	case *[]int:
		return arrayValue(d, t, parseInt)
	case *[]float64:
		return arrayValue(d, t, parseFloat)
	}
	return d.skipValue(1)
}

func parseInt(tok []byte) (int, error) {
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	return int(v), err
}

func parseFloat(tok []byte) (float64, error) {
	return strconv.ParseFloat(string(tok), 64)
}

// typeError reports a value of the wrong JSON type for a field of type
// want.
func (d *decoder) typeError(want any) error {
	return fmt.Errorf("cannot decode %q at offset %d into %T", d.peek(), d.i, want)
}

func (d *decoder) stringValue(dst *string) error {
	switch d.peek() {
	case 'n':
		return d.literal("null") // null leaves a string untouched
	case '"':
		lit, plain, err := d.str()
		if err != nil {
			return err
		}
		*dst, err = unquote(lit, plain)
		return err
	}
	return d.typeError(*dst)
}

func (d *decoder) intValue(dst *int) error {
	switch c := d.peek(); {
	case c == 'n':
		return d.literal("null")
	case c == '-' || '0' <= c && c <= '9':
		tok, err := d.number()
		if err != nil {
			return err
		}
		if *dst, err = parseInt(tok); err != nil {
			return fmt.Errorf("cannot decode number %s into int", tok)
		}
		return nil
	}
	return d.typeError(*dst)
}

// arrayValue decodes an array of numbers (or nulls) into *dst. A null
// array makes *dst nil and an empty one a fresh empty slice, as in
// encoding/json.
func arrayValue[E int | float64](d *decoder, dst *[]E, parse func([]byte) (E, error)) error {
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
		*dst = nil
		return nil
	case '[':
		d.i++
	default:
		return d.typeError(*dst)
	}
	d.skipSpace()
	if d.peek() == ']' {
		d.i++
		*dst = []E{}
		return nil
	}
	// Size the slice from the commas before the first ']'. The count is only
	// a capacity hint: malformed content fails in the element loop. Capping
	// it at what the bytes could hold keeps a hostile run of commas from
	// allocating more than a valid array of the same length would.
	seg := d.b[d.i:]
	if end := bytes.IndexByte(seg, ']'); end >= 0 {
		seg = seg[:end]
	}
	hint := min(bytes.Count(seg, []byte{','})+1, len(seg)/2+1)

	out := (*dst)[:0]
	for {
		out = extend(out, hint)
		switch c := d.peek(); {
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			tok, err := d.number()
			if err != nil {
				return err
			}
			v, err := parse(tok)
			if err != nil {
				return fmt.Errorf("cannot decode number %s into %T", tok, v)
			}
			out[len(out)-1] = v
		default:
			return d.typeError(out[0])
		}
		d.skipSpace()
		switch d.peek() {
		case ',':
			d.i++
			d.skipSpace()
		case ']':
			d.i++
			*dst = out
			return nil
		default:
			return d.syntaxError("after array element")
		}
	}
}

// extend lengthens s by one element the way encoding/json does when it
// decodes into an existing slice: within capacity the backing array is
// reused, so an element left undecoded (a null) keeps whatever an earlier
// decode of the same field stored there; growth copies the whole backing
// array. hint is the preferred capacity when s must grow.
func extend[E int | float64](s []E, hint int) []E {
	if len(s) == cap(s) {
		grown := make([]E, max(hint, 2*cap(s)+1))
		copy(grown, s)
		s = grown[:len(s)]
	}
	return s[:len(s)+1]
}

// skipValue validates and skips one value nested depth containers deep,
// iteratively, so hostile nesting costs a byte per level rather than a
// stack frame.
func (d *decoder) skipValue(depth int) error {
	var open []byte // the unclosed containers: '{' or '['
	for {
		// A value is expected here.
		d.skipSpace()
		switch c := d.peek(); {
		case c == '{' || c == '[':
			if depth+len(open)+1 > maxNestingDepth {
				return fmt.Errorf("exceeded max depth (offset %d)", d.i)
			}
			d.i++
			d.skipSpace()
			if d.peek() == c+2 { // '{'+2 == '}', '['+2 == ']'
				d.i++
				break
			}
			open = append(open, c)
			if c == '{' {
				if err := d.memberKey(); err != nil {
					return err
				}
			}
			continue
		case c == '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case c == 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case c == 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case c == 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		case c == '-' || '0' <= c && c <= '9':
			if _, err := d.number(); err != nil {
				return err
			}
		default:
			return d.syntaxError("looking for beginning of value")
		}
		// A value ended: close containers until one continues.
		for {
			if len(open) == 0 {
				return nil
			}
			d.skipSpace()
			top := open[len(open)-1]
			c := d.peek()
			if c == top+2 {
				d.i++
				open = open[:len(open)-1]
				continue
			}
			if c != ',' {
				return d.syntaxError("after container element")
			}
			d.i++
			if top == '{' {
				if err := d.memberKey(); err != nil {
					return err
				}
			}
			break
		}
	}
}

// memberKey consumes an object member's key and colon.
func (d *decoder) memberKey() error {
	d.skipSpace()
	if d.peek() != '"' {
		return d.syntaxError("looking for beginning of object key string")
	}
	if _, _, err := d.str(); err != nil {
		return err
	}
	return d.expect(':', "after object key")
}
