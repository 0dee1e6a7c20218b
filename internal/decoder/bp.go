package decoder

import (
	"math"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/graph"
	"pooleddata/internal/parsort"
)

// BP is a Gaussian-approximation belief propagation decoder on the pooling
// factor graph — the same family as the AMP decoder of Alaoui et al. that
// the paper cites for the dense regime.
//
// Each iteration treats the contribution of all other entries to a query
// as Gaussian with matched mean and variance (accurate because Γ = n/2
// entries contribute), turns each neighboring query result into a
// log-likelihood-ratio increment for the entry, and updates the posterior
// marginals with damping. Decoding selects the k largest marginals.
type BP struct {
	// Iterations is the number of message-passing rounds; 0 means 30.
	Iterations int
	// Damping ∈ [0,1) blends old and new marginals; 0 means 0.5.
	Damping float64
}

// Name implements Decoder.
func (BP) Name() string { return "bp" }

// Decode implements Decoder.
func (d BP) Decode(g *graph.Bipartite, y []int64, k int) (*bitvec.Vector, error) {
	if err := validate(g, y, k); err != nil {
		return nil, err
	}
	n, m := g.N(), g.M()
	if k == 0 {
		return bitvec.New(n), nil
	}
	iters := d.Iterations
	if iters <= 0 {
		iters = 30
	}
	damp := d.Damping
	if damp <= 0 || damp >= 1 {
		damp = 0.5
	}

	prior := float64(k) / float64(n)
	logPrior := math.Log(prior / (1 - prior))
	p := make([]float64, n)
	for i := range p {
		p[i] = prior
	}
	mean := make([]float64, m)
	variance := make([]float64, m)
	rs := readRows(g)

	for it := 0; it < iters; it++ {
		// Per-query Gaussian moments of Σ A_ij X_i under the current
		// marginals, scattered from the entry side: each query's sums
		// add its entries in increasing order.
		clear(mean)
		clear(variance)
		for e := 0; e < n; e++ {
			qs, mu := rs.row(e)
			pe := p[e]
			for t, j := range qs {
				a := float64(mu[t])
				mean[j] += a * pe
				variance[j] += a * a * pe * (1 - pe)
			}
		}
		// Entry-side LLR updates with cavity (leave-one-out) moments.
		for i := 0; i < n; i++ {
			qs, mu := rs.row(i)
			llr := logPrior
			pi := p[i]
			for t, j := range qs {
				a := float64(mu[t])
				cavMean := mean[j] - a*pi
				cavVar := variance[j] - a*a*pi*(1-pi)
				if cavVar < 0.25 {
					cavVar = 0.25 // floor: discreteness of the count
				}
				r := float64(y[j]) - cavMean
				// ln N(y; cav+a, v) − ln N(y; cav, v)
				llr += a * (2*r - a) / (2 * cavVar)
			}
			// Damped sigmoid update.
			pNew := 1 / (1 + math.Exp(-llr))
			p[i] = damp*pi + (1-damp)*pNew
		}
	}

	top := parsort.TopK(p, k)
	est := bitvec.New(n)
	for _, i := range top {
		est.Set(int(i))
	}
	return est, nil
}
