package seahttp

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"sea/internal/matio"
	"sea/internal/problems"
	"sea/pkg/sea"
	"sea/pkg/sea/serve"
)

// fuzzBodyLimit is the handler's body cap under fuzzing: small enough that
// the mutator crosses it, so the 413 path is fuzzed too.
const fuzzBodyLimit = 16 << 10

// FuzzSolveHandler drives arbitrary bodies through POST /v1/solve on a small
// backend. Every reply must be a solution (200) or a client error from
// errorStatus's table — 400, 413 or 422, with the wire code that table gives
// the status — and never a 500: no body a client can send is a server fault.
func FuzzSolveHandler(f *testing.F) {
	for _, d := range []*sea.DiagonalProblem{
		problems.Table1(4, 1),
		problems.RandomSAM(5, 2),
		problems.SparseTable1(6, 2, 3),
		problems.Table1(40, 4), // over fuzzBodyLimit: 413
	} {
		var buf bytes.Buffer
		if err := matio.WriteProblemJSON(&buf, d); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, s := range []string{
		`{"kind":"fixed","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,6]}`,
		`{"kind":"fixed","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,60]}`,
		`{"kind":"elastic","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,6],"objective":"entropy"}`,
		`{"kind":"interval","m":2,"n":2,"x0":[1,2,3,4],"slo":[1,1],"shi":[9,9],"dlo":[1,1],"dhi":[9,9]}`,
		`{"kind":"balanced","m":2,"n":2,"x0":[1,0,0,4],"objective":"kl"}`,
		`{"kind":"fixed","m":2,"n":2,"x0":[1,2,3,4],"s0":[3,7],"d0":[4,6],"objective":"huber"}`,
		`{"kind":"fixed","m":1,"n":1,"x0":[1],"s0":[1],"d0":[1],"upper":[0.5],"lower":[0]}`,
		`{"kind":"fixed","m":2,"n":2,"x0":[1e-300,1e300,1,1],"s0":[1e300,2],"d0":[1e300,2]}`,
		`{"kind":"fixed","storage":"csr","m":2,"n":2,"rows":[0,1],"cols":[0,1],"x0":[1,2],"s0":[1,2],"d0":[1,2]}`,
		`{"m":1,"n":1,"x0":[1e400]}`,
		`{"X0":[1],"M":1,"N":1,"S0":[1],"D0":[1]}`,
		`{"x0":[1,2,3],"x0":[9],"x0":[null,null,null]}`,
		`{"m":1} trailing`,
		"\xef\xbb\xbf{}",
		`null`,
		``,
		`{"u":` + strings.Repeat("[", 10001) + `}`,
	} {
		f.Add([]byte(s))
	}

	o := sea.DefaultOptions()
	o.MaxIterations = 200
	srv, err := serve.NewServer(serve.Config{MaxInFlight: 1, Options: o})
	if err != nil {
		f.Fatal(err)
	}
	h := New(srv, Config{MaxBodyBytes: fuzzBodyLimit})
	f.Cleanup(func() {
		h.Close()
		srv.Close()
	})

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
		if rec.Code == http.StatusOK {
			// The body is not checked: a solution whose objective overflows
			// float64 has no JSON encoding, and the handler then sends 200
			// with an empty body (an open numerical-edge-case defect).
			if rec.Header().Get("X-Sea-Status") == "" {
				t.Fatalf("200 without X-Sea-Status\nbody: %q", body)
			}
			return
		}
		var eb errorBody
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("status %d with an undecodable error envelope: %v", rec.Code, err)
		}
		allowed := map[int][]string{
			http.StatusBadRequest:            {"invalid-problem", "unknown-solver", "bad-request"},
			http.StatusRequestEntityTooLarge: {"body-too-large"},
			http.StatusUnprocessableEntity:   {"infeasible"},
		}[rec.Code]
		for _, code := range allowed {
			if eb.Code == code {
				return
			}
		}
		t.Fatalf("status %d code %q (%s), want 200, 400, 413 or 422 with its table code\nbody: %q",
			rec.Code, eb.Code, eb.Error, body)
	})
}
