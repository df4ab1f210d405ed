package dtse

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/pool"
)

// Absolute goldens. The equivalence suites compare modes against each other
// (cached vs uncached, 1 vs N workers, 1 vs N nodes), which a change
// shifting every mode alike would pass. These pin the bytes themselves. Regenerate with `go test . -run Golden -update` only for a
// deliberate, explained output change.

const runAllGolden = "runall_256.json"

// TestRunAllGolden pins the full methodology walk at 256×256 — all four
// tables, the figures, the decisions and the final organization, as the
// Results.Wire JSON — both on the strictly sequential path and on a 4-wide
// pool.
func TestRunAllGolden(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ep := core.DefaultEvalParams()
		ep.Workers = pool.New(workers)
		res, err := core.RunAll(core.DemoConfig{Size: 256}, ep)
		if err != nil {
			t.Fatal(err)
		}
		w, err := res.Wire()
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.MarshalIndent(w, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, runAllGolden, append(got, '\n'))
	}
}

const exploreGolden = "explore_bodies.jsonl"

// goldenExploreRequests are the /v1/explore bodies pinned by
// exploreGolden: a demo run plus seeded random spec-mode requests, then
// the same seeds 0–2 with the in-place and interconnect spec params set,
// and last a two-phase spec whose two groups have disjoint lifetimes and
// share one on-chip memory, the case in which in-place mapping changes the
// organization (every random spec is one loop, so all its groups overlap).
func goldenExploreRequests(t *testing.T) []string {
	bodies := []string{`{"demo": {"size": 16, "seed": 9}}`}
	for seed := int64(0); seed < 5; seed++ {
		bodies = append(bodies, randClusterSpec(t, seed))
	}
	for seed, params := range []string{
		`{"inplace": true}`,
		`{"interconnect": true}`,
		`{"inplace": true, "interconnect": true}`,
	} {
		spec := randClusterSpec(t, int64(seed))
		bodies = append(bodies, strings.TrimSuffix(spec, "}")+`, "params": `+params+`}`)
	}
	b := NewSpec("staged")
	b.Group("early", 4096, 8)
	b.Group("late", 4096, 8)
	b.Loop("phase1", 1000)
	b.Write("early", 1)
	b.Read("early", 1)
	b.Loop("phase2", 1000)
	b.Write("late", 1)
	b.Read("late", 1)
	var staged bytes.Buffer
	if err := WriteSpecJSON(b.MustBuild(), &staged); err != nil {
		t.Fatal(err)
	}
	bodies = append(bodies, fmt.Sprintf(`{"spec": %s, "budget": 20000, "params": {"onchip": 1, "inplace": true}}`, staged.Bytes()))
	return bodies
}

// goldenExploreBodies returns the pinned response body (newline included)
// of each goldenExploreRequests entry, in order.
func goldenExploreBodies(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", exploreGolden))
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	return lines
}

// TestExploreGolden pins the /v1/explore response bodies of a plain single
// node. Each body is one compact JSON line, so the golden is one request
// per line.
func TestExploreGolden(t *testing.T) {
	srv := NewServer(ServeOptions{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Abort()

	var all []byte
	for i, body := range goldenExploreRequests(t) {
		resp, got := postURL(t, ts.URL, "/v1/explore", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, got)
		}
		if bytes.Count(got, []byte("\n")) != 1 || !bytes.HasSuffix(got, []byte("\n")) {
			t.Fatalf("request %d: body is not one JSON line", i)
		}
		all = append(all, got...)
	}
	checkGolden(t, exploreGolden, all)
}

// checkGolden compares got with testdata/name, or rewrites it under -update.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from golden %s:\n%s", path, diffLines(want, got))
	}
}
