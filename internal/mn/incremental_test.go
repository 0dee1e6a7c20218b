package mn

import (
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/parsort"
	"pooleddata/internal/thresholds"
)

// prefixEstimate decodes from scratch using only queries [0, prefix) —
// the reference the incremental decoder must match.
func prefixEstimate(g graphLike, y []int64, prefix, k int) *bitvec.Vector {
	n := g.N()
	scores := make([]float64, n)
	for i := 0; i < n; i++ {
		qs, _ := g.EntryQueries(i)
		var psi, dist int64
		for _, j := range qs {
			if int(j) < prefix {
				psi += y[j]
				dist++
			}
		}
		scores[i] = float64(psi) - float64(dist)*float64(k)/2
	}
	est := bitvec.New(n)
	for _, i := range parsort.TopK(scores, k) {
		est.Set(int(i))
	}
	return est
}

// graphLike is the slice of the graph API the reference decoder needs.
type graphLike interface {
	N() int
	EntryQueries(i int) (queries []int32, mults []uint8)
}

func TestIncrementalMatchesPrefixDecode(t *testing.T) {
	n, k, m := 300, 6, 200
	g, _, y := instance(t, n, k, m, 101)
	inc := NewIncremental(g)
	batch := 25
	for start := 0; start < m; start += batch {
		end := start + batch
		if end > m {
			end = m
		}
		qs := make([]int, 0, end-start)
		rs := make([]int64, 0, end-start)
		for j := start; j < end; j++ {
			qs = append(qs, j)
			rs = append(rs, y[j])
		}
		inc.AddBatch(qs, rs)
		if inc.Answered() != end {
			t.Fatalf("Answered = %d, want %d", inc.Answered(), end)
		}
		if !inc.Estimate(k).Equal(prefixEstimate(g, y, end, k)) {
			t.Fatalf("incremental estimate diverges from prefix decode after %d queries", end)
		}
	}
	// After all batches the estimate must equal the full decoder's.
	full := Reconstruct(g, y, k, Options{})
	if !inc.Estimate(k).Equal(full.Estimate) {
		t.Fatal("final incremental estimate differs from Reconstruct")
	}
}

func TestIncrementalOutOfOrderBatches(t *testing.T) {
	n, k, m := 200, 5, 120
	g, _, y := instance(t, n, k, m, 102)
	inc := NewIncremental(g)
	// Answer odd queries first, then even: set-equality with the full
	// decode must still hold (order of absorption is irrelevant).
	var qs []int
	var rs []int64
	for j := 1; j < m; j += 2 {
		qs = append(qs, j)
		rs = append(rs, y[j])
	}
	inc.AddBatch(qs, rs)
	qs, rs = nil, nil
	for j := 0; j < m; j += 2 {
		qs = append(qs, j)
		rs = append(rs, y[j])
	}
	inc.AddBatch(qs, rs)
	full := Reconstruct(g, y, k, Options{})
	if !inc.Estimate(k).Equal(full.Estimate) {
		t.Fatal("out-of-order absorption changed the estimate")
	}
}

func TestIncrementalPanics(t *testing.T) {
	g, _, y := instance(t, 100, 4, 30, 103)
	inc := NewIncremental(g)
	for name, fn := range map[string]func(){
		"length mismatch": func() { inc.AddBatch([]int{0, 1}, []int64{1}) },
		"out of range":    func() { inc.AddBatch([]int{99}, []int64{0}) },
		"bad k":           func() { inc.Estimate(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
	// Duplicate absorption.
	inc.AddBatch([]int{3}, []int64{y[3]})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate query accepted")
		}
	}()
	inc.AddBatch([]int{3}, []int64{y[3]})
}

func TestIncrementalEarlyStopping(t *testing.T) {
	// Feed rounds of L queries; after each round, stop once the estimate
	// is consistent with everything answered. The stop point must come
	// before m, and the stopped estimate must be exactly σ.
	n, k := 400, 6
	m := int(2 * thresholds.MN(n, k))
	g, sigma, y := instance(t, n, k, m, 104)
	inc := NewIncremental(g)
	const L = 20
	stopped := -1
	for start := 0; start < m && stopped < 0; start += L {
		end := start + L
		if end > m {
			end = m
		}
		qs := make([]int, 0, L)
		rs := make([]int64, 0, L)
		for j := start; j < end; j++ {
			qs = append(qs, j)
			rs = append(rs, y[j])
		}
		inc.AddBatch(qs, rs)
		est := inc.Estimate(k)
		// Require a meaningful prefix before trusting consistency.
		if end >= m/4 && inc.ConsistentSoFar(est, y) {
			if !est.Equal(sigma) {
				t.Fatalf("consistent early estimate at %d queries is wrong", end)
			}
			stopped = end
		}
	}
	if stopped < 0 {
		t.Fatal("never became consistent, even at 2x threshold")
	}
	if stopped >= m {
		t.Fatal("no early stopping happened")
	}
}

func TestConsistentSoFarRejects(t *testing.T) {
	g, sigma, y := instance(t, 200, 5, 100, 105)
	inc := NewIncremental(g)
	qs := make([]int, 50)
	rs := make([]int64, 50)
	for j := range qs {
		qs[j] = j
		rs[j] = y[j]
	}
	inc.AddBatch(qs, rs)
	if !inc.ConsistentSoFar(sigma, y) {
		t.Fatal("σ must be consistent with its own results")
	}
	wrong := sigma.Clone()
	wrong.Flip(0)
	wrong.Flip(1)
	if inc.ConsistentSoFar(wrong, y) {
		t.Fatal("perturbed signal accepted as consistent")
	}
	if inc.ConsistentSoFar(sigma, y[:10]) {
		t.Fatal("short y accepted")
	}
}
