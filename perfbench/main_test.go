package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// contract is the part of BENCHMARK.json the program must agree with.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

// TestTinyRuns runs every workload briefly, untraced and traced, and
// checks that it is correct and prints every metric BENCHMARK.json names,
// with that metric's unit, in the last line and in the human lines. The
// program's workloads include the apps kernels BENCHMARK.json leaves
// out, and they are held to the same.
func TestTinyRuns(t *testing.T) {
	c := readContract(t)
	for _, w := range c.Workloads {
		if !slices.Contains(workloads, w.Name) {
			t.Fatalf("BENCHMARK.json workload %q is not a program workload", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o, err := measure(w, 7, 0.2, trace, false)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			rec, res, err := report(w, 7, 0.2, trace, t.TempDir(), o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d, checks %+v", w, trace, res.Correct, res.Attempted, res.Failed, rec.Checks)
			}
			want := c.EndToEnd
			if trace {
				want = c.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics in the last line, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys struct {
				Metrics map[string]map[string]any `json:"metrics"`
			}
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			for name, m := range keys.Metrics {
				if _, v := m["value"]; len(m) != 2 || !v || m["unit"] == nil {
					t.Errorf("%s trace=%v: %s is %v in the last line, want exactly value and unit", w, trace, name, m)
				}
			}
			var human bytes.Buffer
			printHuman(&human, rec)
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
					continue
				}
				if got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s trace=%v: %s = %v %q, want a number in %q", w, trace, m.Name, got.Value, got.Unit, m.Unit)
				}
				if !strings.Contains(human.String(), " "+m.Name+" ") {
					t.Errorf("%s trace=%v: %s not printed", w, trace, m.Name)
				}
			}
		}
	}
}

// TestCorruptedReferenceFails proves a wrong kernel output is counted:
// with the reference corrupted, every run must fail the comparison.
func TestCorruptedReferenceFails(t *testing.T) {
	o, err := measure("apps-cfrac", 7, 0.1, false, true)
	if err != nil {
		t.Fatal(err)
	}
	_, res, err := report("apps-cfrac", 7, 0.1, false, t.TempDir(), o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Attempted == 0 || res.Failed != res.Attempted {
		t.Fatalf("corrupted reference: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
}

// TestGentagBalance checks the serve-gentag ledger: injected errors
// happen, and every one is rejected or ignored exactly once.
func TestGentagBalance(t *testing.T) {
	o, err := measure("serve-gentag", 7, 0.3, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if o.invariantErr != nil || len(o.balance) != 0 {
		t.Fatalf("invariants %v, balance %v", o.invariantErr, o.balance)
	}
	if o.injectedDoubles == 0 || o.injectedWilds == 0 {
		t.Fatalf("no errors injected in %d sessions", o.attempted)
	}
	if o.final.StaleFrees != uint64(o.injectedDoubles) || o.final.IgnoredFrees != uint64(o.injectedWilds) {
		t.Fatalf("StaleFrees %d vs %d doubles, IgnoredFrees %d vs %d wild frees",
			o.final.StaleFrees, o.injectedDoubles, o.final.IgnoredFrees, o.injectedWilds)
	}
}

func TestQuantileAndSampler(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.25, 2}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	var s sampler
	const n = 1_000_000
	for i := 0; i < n; i++ {
		s.add(float64(i))
	}
	if len(s.vals) > samplerCap || s.seen != n {
		t.Fatalf("sampler kept %d of %d", len(s.vals), s.seen)
	}
	if m := median(append([]float64(nil), s.vals...)); math.Abs(m-n/2) > n/100 {
		t.Fatalf("sampled median %v, stream median %v", m, n/2)
	}
	if sub := subsample(s.vals, 1000); len(sub) != 1000 || sub[0] != s.vals[0] {
		t.Fatalf("subsample: %d values", len(sub))
	}
}
