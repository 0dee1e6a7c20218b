package decoder

import (
	"math"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/parsort"
)

// LP is a convex-relaxation decoder standing in for the ℓ1/basis-pursuit
// family of §I.B (Donoho–Tanner, Foucart–Rauhut): it relaxes σ ∈ {0,1}^n
// to x ∈ [0,1]^n, minimizes ‖Aᵀx − y‖² by accelerated projected gradient
// descent (FISTA with box projection), and rounds the relaxed solution to
// the k largest coordinates. The box constraints make an explicit
// sparsity penalty unnecessary at the query counts of interest, matching
// the (2+o(1))·k·ln(n/k) behaviour quoted in the paper.
type LP struct {
	// Iterations bounds the FISTA steps; 0 means 200.
	Iterations int
	// Tolerance stops early when the relative residual improvement drops
	// below it; 0 means 1e-7.
	Tolerance float64
}

// Name implements Decoder.
func (LP) Name() string { return "lp-relaxation" }

// Decode implements Decoder.
func (d LP) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	n, m := g.N(), g.M()
	if k == 0 {
		return bitvec.New(n), nil
	}
	iters := d.Iterations
	if iters <= 0 {
		iters = 200
	}
	tol := d.Tolerance
	if tol <= 0 {
		tol = 1e-7
	}

	yf := make([]float64, m)
	for j, v := range y {
		yf[j] = float64(v)
	}

	// Lipschitz constant of the gradient: L = ‖A‖₂², estimated by a few
	// rounds of power iteration on A Aᵀ.
	l := operatorNormSquared(g)
	if l <= 0 {
		l = 1
	}
	step := 1 / l

	x := make([]float64, n)
	z := make([]float64, n) // FISTA extrapolation point
	prevX := make([]float64, n)
	init := float64(k) / float64(n)
	for i := range x {
		x[i] = init
		z[i] = init
	}
	resid := make([]float64, m)
	grad := make([]float64, n)
	tPrev := 1.0
	prevObj := math.Inf(1)

	for it := 0; it < iters; it++ {
		// resid = Aᵀz − y; grad = A·resid.
		mulAT(g, z, resid)
		for j := range resid {
			resid[j] -= yf[j]
		}
		mulA(g, resid, grad)

		copy(prevX, x)
		obj := 0.0
		for j := range resid {
			obj += resid[j] * resid[j]
		}
		for i := range x {
			v := z[i] - step*grad[i]
			if v < 0 {
				v = 0
			} else if v > 1 {
				v = 1
			}
			x[i] = v
		}
		// FISTA momentum.
		tNext := (1 + math.Sqrt(1+4*tPrev*tPrev)) / 2
		beta := (tPrev - 1) / tNext
		for i := range z {
			z[i] = x[i] + beta*(x[i]-prevX[i])
		}
		tPrev = tNext

		if prevObj-obj < tol*math.Max(prevObj, 1) && it > 10 {
			break
		}
		prevObj = obj
	}

	est := bitvec.New(n)
	for _, i := range parsort.TopK(x, k) {
		est.Set(int(i))
	}
	return est, nil
}

// operatorNormSquared estimates ‖A‖₂² by power iteration on v ↦ A(Aᵀv)
// over entry space.
func operatorNormSquared(g *graph.Bipartite) float64 {
	v := make([]float64, g.N())
	for i := range v {
		// Deterministic non-degenerate start vector.
		v[i] = 1 + float64(i%7)/7
	}
	tmp := make([]float64, g.M())
	next := make([]float64, g.N())
	lambda := 0.0
	for it := 0; it < 30; it++ {
		mulAT(g, v, tmp)
		mulA(g, tmp, next)
		norm := 0.0
		for _, x := range next {
			norm += x * x
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0
		}
		lambda = norm
		for i := range v {
			v[i] = next[i] / norm
		}
	}
	return lambda
}

// mulA sets out = A·r, with A the n×m multiplicity matrix: entry i's row
// of the graph dotted with r.
func mulA(g *graph.Bipartite, r, out []float64) {
	for i := range out {
		qs, mu := g.EntryQueries(i)
		var s float64
		for p, j := range qs {
			s += float64(mu[p]) * r[j]
		}
		out[i] = s
	}
}

// mulAT sets out = Aᵀx by a sequential scatter over the entry side, so
// each out[j] sums the entries of query j in increasing order, as a
// query-indexed product would.
func mulAT(g *graph.Bipartite, x, out []float64) {
	clear(out)
	for i, xi := range x {
		qs, mu := g.EntryQueries(i)
		for p, j := range qs {
			out[j] += float64(mu[p]) * xi
		}
	}
}
