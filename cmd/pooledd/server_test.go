package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"pooleddata/internal/bitvec"
	"pooleddata/internal/campaign"
	"pooleddata/internal/engine"
	"pooleddata/internal/labio"
	"pooleddata/internal/noise"
	"pooleddata/internal/pooling"
	"pooleddata/internal/query"
	"pooleddata/internal/rng"
)

func newTestServer(t *testing.T) (*httptest.Server, *engine.Cluster) {
	t.Helper()
	cluster := engine.NewCluster(engine.ClusterConfig{
		Shards: 2,
		Shard:  engine.Config{CacheCapacity: 4, Workers: 2},
	})
	t.Cleanup(cluster.Close)
	srv := newServer(cluster, campaign.Config{})
	t.Cleanup(srv.campaigns.Close)
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, cluster
}

func postJSON(t testing.TB, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode < 300 {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp
}

func TestSchemeDecodeRoundTrip(t *testing.T) {
	ts, _ := newTestServer(t)
	n, k, m := 400, 6, 300

	var sch schemeEntry
	resp := postJSON(t, ts.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: 5}, &sch)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create scheme: status %d", resp.StatusCode)
	}

	// Re-posting the same spec must return the same id (cache + dedupe).
	var again schemeEntry
	postJSON(t, ts.URL+"/v1/schemes", schemeRequest{Design: "random-regular", N: n, M: m, Seed: 5}, &again)
	if again.ID != sch.ID {
		t.Fatalf("same spec produced ids %q and %q", sch.ID, again.ID)
	}

	// Fetch the design CSV — the robot's protocol — and measure locally.
	dresp, err := http.Get(ts.URL + "/v1/schemes/" + sch.ID + "/design")
	if err != nil {
		t.Fatal(err)
	}
	defer dresp.Body.Close()
	g, err := labio.ReadDesign(dresp.Body)
	if err != nil {
		t.Fatalf("design CSV did not round-trip: %v", err)
	}
	sigma := bitvec.Random(n, k, rng.NewRandSeeded(9))
	y := query.Execute(g, sigma, query.Options{}).Y

	// Decode via JSON counts.
	var dec decodeResponse
	resp = postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: k, Counts: y}, &dec)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("decode: status %d", resp.StatusCode)
	}
	if !dec.Consistent || dec.Residual != 0 {
		t.Fatalf("decode inconsistent: %+v", dec)
	}
	if !bitvec.FromIndices(n, dec.Support).Equal(sigma) {
		t.Fatal("decode did not recover the planted signal")
	}

	// Decode via the labio counts CSV path (WriteCountsCSV output).
	var csv bytes.Buffer
	if err := labio.WriteCounts(&csv, y); err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/v1/decode?scheme=%s&k=%d&decoder=mn", ts.URL, sch.ID, k)
	cresp, err := http.Post(url, "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("csv decode: status %d", cresp.StatusCode)
	}
	var dec2 decodeResponse
	if err := json.NewDecoder(cresp.Body).Decode(&dec2); err != nil {
		t.Fatal(err)
	}
	if !bitvec.FromIndices(n, dec2.Support).Equal(sigma) {
		t.Fatal("csv decode did not recover the planted signal")
	}
}

func TestBatchDecodeAndStats(t *testing.T) {
	ts, eng := newTestServer(t)
	n, k, m := 300, 5, 240

	var sch schemeEntry
	postJSON(t, ts.URL+"/v1/schemes", schemeRequest{N: n, M: m, Seed: 3}, &sch)

	es, err := eng.Scheme(nil, n, m, 3)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 6
	signals := make([]*bitvec.Vector, batch)
	for b := range signals {
		signals[b] = bitvec.Random(n, k, rng.NewRandSeeded(uint64(40+b)))
	}
	ys := eng.MeasureBatch(es, signals, noise.Model{})

	var out struct {
		Results []decodeResponse `json:"results"`
	}
	resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: k, Batch: ys}, &out)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch decode: status %d", resp.StatusCode)
	}
	if len(out.Results) != batch {
		t.Fatalf("got %d results, want %d", len(out.Results), batch)
	}
	for b, res := range out.Results {
		if !bitvec.FromIndices(n, res.Support).Equal(signals[b]) {
			t.Fatalf("batch decode %d failed", b)
		}
	}

	sresp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(sresp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.JobsCompleted != batch || st.Schemes != 1 {
		t.Fatalf("stats = %+v, want %d jobs and 1 scheme", st, batch)
	}
}

func TestUploadDesignCSV(t *testing.T) {
	ts, eng := newTestServer(t)
	n, k, m := 200, 4, 160

	es, err := eng.Scheme(nil, n, m, 77)
	if err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := labio.WriteDesign(&csv, es.G); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/schemes", "text/csv", &csv)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("upload: status %d", resp.StatusCode)
	}
	var sch schemeEntry
	if err := json.NewDecoder(resp.Body).Decode(&sch); err != nil {
		t.Fatal(err)
	}
	if !sch.AdHoc || sch.N != n || sch.M != m {
		t.Fatalf("uploaded scheme = %+v", sch)
	}

	sigma := bitvec.Random(n, k, rng.NewRandSeeded(8))
	y := query.Execute(es.G, sigma, query.Options{}).Y
	var dec decodeResponse
	postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: k, Counts: y}, &dec)
	if !bitvec.FromIndices(n, dec.Support).Equal(sigma) {
		t.Fatal("decode on uploaded design failed")
	}
}

// TestInvalidDesignsAre400: designs the builders or the CSV parser
// refuse are the client's error, answered 400 with the cause. Refusing
// them costs nothing: neither Γ = 10^11 draws nor a header claiming 10^12
// queries is allocated, and the server keeps answering.
func TestInvalidDesignsAre400(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct{ ct, body, want string }{
		{"application/json", `{"design":"bernoulli","n":100,"m":10,"p":1.5}`, "probability 1.5 must be < 1"},
		{"application/json", `{"design":"random-regular","n":10,"m":1,"gamma":2551}`, "more than 255 times, the multiplicity limit"},
		{"application/json", `{"design":"random-regular","n":10,"m":1,"gamma":100000000000}`, "more than 255 times, the multiplicity limit"},
		{"text/csv", "pooled-design,v1,4,1\nquery,entry,multiplicity\n0,1,4294967297\n", "multiplicity 4294967297 outside [1,255]"},
		{"text/csv", "pooled-design,v1,4,1000000000000\nquery,entry,multiplicity\n", "m=1000000000000 outside [0,16777216]"},
	} {
		resp, err := http.Post(ts.URL+"/v1/schemes", tc.ct, strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, tc.want) {
			t.Fatalf("%s: status %d, error %q (%v); want 400 naming %q", tc.body, resp.StatusCode, body.Error, err, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after refused designs: status %d", resp.StatusCode)
	}
}

// TestSpecSizeBudget: a parametric spec whose pair bound exceeds
// graph.MaxSpecPairs, or whose n or m exceeds graph.MaxParsedDim, is
// answered 400 naming the limit before anything is built, and the server
// keeps answering.
func TestSpecSizeBudget(t *testing.T) {
	ts, _ := newTestServer(t)
	for _, tc := range []struct{ body, want string }{
		{`{"design":"random-regular","n":2000000000,"m":1}`, "over the pair budget of 67108864"},
		{`{"design":"random-regular","n":10000,"m":20000,"gamma":5000}`, "over the pair budget of 67108864"},
		{`{"design":"bernoulli","n":100000,"m":1000,"p":0.001}`, "over the pair budget of 67108864"},
		{`{"design":"constant-column","n":9000000,"m":100,"d":10}`, "over the pair budget of 67108864"},
		{`{"design":"random-regular","n":16777217,"m":0}`, "over the dimension limit 16777216"},
		{`{"design":"bernoulli","n":1,"m":16777217}`, "over the dimension limit 16777216"},
	} {
		resp, err := http.Post(ts.URL+"/v1/schemes", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		var body struct{ Error string }
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, tc.want) {
			t.Fatalf("%s: status %d, error %q (%v); want 400 naming %q", tc.body, resp.StatusCode, body.Error, err, tc.want)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats after refused specs: status %d", resp.StatusCode)
	}
	// The home scale and the largest spec the tests build stay in budget.
	for _, req := range []schemeRequest{{Design: "random-regular", N: 10000, M: 600}, {Design: "bernoulli", N: 6000, M: 3000}} {
		if err := checkSpecSize(mustDesign(t, req.Design), req.N, req.M); err != nil {
			t.Fatalf("%+v: %v", req, err)
		}
	}
}

func mustDesign(t *testing.T, name string) pooling.Design {
	t.Helper()
	des, err := engine.DesignByName(name, engine.DesignParams{})
	if err != nil {
		t.Fatal(err)
	}
	return des
}

func TestErrorPaths(t *testing.T) {
	ts, _ := newTestServer(t)
	if resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: "nope", K: 1, Counts: []int64{0}}, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scheme: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/schemes", schemeRequest{Design: "nope", N: 10, M: 5}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown design: status %d", resp.StatusCode)
	}
	var sch schemeEntry
	postJSON(t, ts.URL+"/v1/schemes", schemeRequest{N: 50, M: 20, Seed: 1}, &sch)
	if resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: 2, Decoder: "nope", Counts: make([]int64, 20)}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown decoder: status %d", resp.StatusCode)
	}
	if resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: 2}, nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing counts: status %d", resp.StatusCode)
	}
	// Counts of the wrong length surface as a decode failure.
	if resp := postJSON(t, ts.URL+"/v1/decode", decodeRequest{Scheme: sch.ID, K: 2, Counts: []int64{1, 2}}, nil); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("short counts: status %d", resp.StatusCode)
	}
}
