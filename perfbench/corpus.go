package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"sea/internal/matio"
	"sea/internal/problems"
	"sea/internal/spe"
	"sea/pkg/sea"
)

// instanceSeed derives the k-th corpus instance's generator seed from the
// run seed. Every step is a bijection of seed for a fixed k (odd multiply,
// add, splitmix64 finalizer), so two run seeds never share an instance seed.
func instanceSeed(seed uint64, k int) uint64 {
	z := seed*0x9e3779b97f4a7c15 + uint64(k)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// speCorpus is spe-dense's input: count elastic problems derived from
// order×order spatial price equilibria, the class of the paper's Table 5.
func speCorpus(seed uint64, count, order int) ([]*sea.DiagonalProblem, error) {
	out := make([]*sea.DiagonalProblem, count)
	for k := range out {
		d, err := spe.Generate(order, order, instanceSeed(seed, k)).ToConstrainedMatrix()
		if err != nil {
			return nil, fmt.Errorf("spe instance %d: %w", k, err)
		}
		out[k] = d
	}
	return out, nil
}

// sparseCorpus is sparse-cold's input: count fixed-totals n×n problems on a
// ~1% cyclic band in CSR storage.
func sparseCorpus(seed uint64, count, n int) []*sea.DiagonalProblem {
	out := make([]*sea.DiagonalProblem, count)
	for k := range out {
		out[k] = problems.SparseTable1(n, problems.SparseBand(n), instanceSeed(seed, k))
	}
	return out
}

// httpCorpus is http-small's input: perOrder distinct Table 1 priors at each
// order, encoded once as /v1/solve request bodies.
func httpCorpus(seed uint64, orders []int, perOrder int) ([][]byte, error) {
	var out [][]byte
	for _, n := range orders {
		for k := 0; k < perOrder; k++ {
			var buf bytes.Buffer
			d := problems.Table1(n, instanceSeed(seed, len(out)))
			if err := matio.WriteProblemJSON(&buf, d); err != nil {
				return nil, fmt.Errorf("encode %dx%d: %w", n, n, err)
			}
			out = append(out, buf.Bytes())
		}
	}
	return out, nil
}

// problemsDigest is the SHA-256 of the problems' data, field by field in a
// fixed order, so equal digests mean bit-identical inputs.
func problemsDigest(ps []*sea.DiagonalProblem) string {
	h := sha256.New()
	for _, d := range ps {
		ints(h, d.M, d.N, int(d.Kind))
		for _, f := range [][]float64{d.X0, d.Gamma, d.S0, d.D0, d.Alpha, d.Beta,
			d.SLo, d.SHi, d.DLo, d.DHi, d.Upper, d.Lower} {
			words := make([]uint64, len(f))
			for i, v := range f {
				words[i] = math.Float64bits(v)
			}
			ints(h, len(f))
			write(h, words)
		}
		if pt := d.Pattern; pt != nil {
			words := make([]uint64, 0, len(pt.RowPtr)+len(pt.ColIdx))
			for _, r := range pt.RowPtr {
				words = append(words, uint64(r))
			}
			for _, c := range pt.ColIdx {
				words = append(words, uint64(c))
			}
			write(h, words)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// bodiesDigest is the SHA-256 of the request bodies.
func bodiesDigest(bodies [][]byte) string {
	h := sha256.New()
	for _, b := range bodies {
		ints(h, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

func ints(h hash.Hash, vs ...int) {
	words := make([]uint64, len(vs))
	for i, v := range vs {
		words[i] = uint64(v)
	}
	write(h, words)
}

// write feeds words to h little-endian.
func write(h hash.Hash, words []uint64) {
	b := make([]byte, 8*len(words))
	for i, w := range words {
		binary.LittleEndian.PutUint64(b[8*i:], w)
	}
	h.Write(b)
}
