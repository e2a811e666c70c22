// Command perfbench is the repository's benchmark: the paper's
// allocation-intensive kernels and two closed-loop serve workloads,
// measured end to end and, in a separate traced run, layer by layer.
// See README.md for the workloads, the metrics and how to run it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// workloads are the workload names: one per paper kernel, then the two
// serve workloads. README.md says why each exists.
var workloads = append(appsWorkloads(), "serve-thin", "serve-gentag")

func appsWorkloads() []string {
	var names []string
	for _, k := range appsKernels {
		names = append(names, "apps-"+k)
	}
	return names
}

// traceDir is where a traced run writes its spans, inside the checkout.
var traceDir = filepath.Join(".bench_build", "traces")

// result is the last line of output, the benchmark's contract.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// value is a metric as the last line carries it: the number and its
// unit, and nothing else.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// values strips the sample counts from ms for the last line.
func values(ms map[string]metric) map[string]value {
	out := make(map[string]value, len(ms))
	for k, m := range ms {
		out[k] = value{Value: m.Value, Unit: m.Unit}
	}
	return out
}

// record is the full result of one run, printed before the last line.
type record struct {
	Record     string               `json:"record"`
	Workload   string               `json:"workload"`
	Seed       uint64               `json:"seed"`
	Seconds    float64              `json:"seconds"`
	Trace      bool                 `json:"trace"`
	Provenance provenance           `json:"provenance"`
	Metrics    map[string]metric    `json:"metrics"`
	Ops        map[string]opSummary `json:"ops,omitempty"`
	Ladder     *ladder              `json:"ladder,omitempty"`
	TraceFile  string               `json:"trace_file,omitempty"`
	Checks     checks               `json:"checks"`
}

type checks struct {
	Attempted       int64    `json:"attempted"`
	Failed          int64    `json:"failed"`
	Invariants      string   `json:"invariants"`
	Balance         []string `json:"balance,omitempty"`
	InjectedDoubles int64    `json:"injected_doubles"`
	StaleFrees      uint64   `json:"stale_frees"`
	InjectedWilds   int64    `json:"injected_wild_frees"`
	IgnoredFrees    uint64   `json:"ignored_frees"`
}

func main() {
	workload := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "workload seed: heap layouts and session plans derive from it")
	seconds := flag.Float64("seconds", 10, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run and reports per-layer metrics")
	asPart := flag.Bool("part", false, "measure one part of an untraced run in this process and print it as JSON (used by the run itself)")
	flag.Parse()
	if !slices.Contains(workloads, *workload) {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q; one of %s\n", *workload, strings.Join(workloads, ", "))
		os.Exit(2)
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers())
	if *asPart {
		o, err := measure(*workload, *seed, *seconds, false, false)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(toPart(o))
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s part: %v\n", *workload, err)
			os.Exit(1)
		}
		return
	}
	var o *outcome
	var err error
	if *trace == 1 {
		o, err = measure(*workload, *seed, *seconds, true, false)
	} else {
		o, err = measureParts(*workload, *seed, *seconds)
	}
	var rec *record
	var res *result
	if err == nil {
		rec, res, err = report(*workload, *seed, *seconds, *trace == 1, traceDir, o)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	printHuman(os.Stdout, rec)
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// workers is the serve worker count: two, or fewer on a smaller host.
func workers() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

// report builds the record and the result line of a measured run; a
// traced run also writes its spans to traceDir.
func report(workload string, seed uint64, seconds float64, trace bool, traceDir string, o *outcome) (*record, *result, error) {
	rec := &record{
		Record:     "perfbench",
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		Provenance: getProvenance(".", workers()),
		Checks: checks{
			Attempted:       o.attempted,
			Failed:          o.failed,
			Invariants:      "ok",
			Balance:         o.balance,
			InjectedDoubles: o.injectedDoubles,
			StaleFrees:      o.final.StaleFrees,
			InjectedWilds:   o.injectedWilds,
			IgnoredFrees:    o.final.IgnoredFrees,
		},
	}
	if o.invariantErr != nil {
		rec.Checks.Invariants = o.invariantErr.Error()
	}
	res := &result{
		Correct:   o.failed == 0 && o.invariantErr == nil && len(o.balance) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
	}
	if !trace {
		e2e := endToEnd(o)
		res.Metrics = values(e2e)
		rec.Metrics = withWorkloadNames(workload, o, e2e)
		return rec, res, nil
	}
	layers := perLayer(o)
	res.Metrics = values(layers)
	rec.Metrics = make(map[string]metric)
	for k, v := range layers {
		rec.Metrics[k] = v
	}
	// Per entry point, under the names the layers' own calls have.
	rec.Ops = o.traced.tr.opSummaries()
	for name, s := range rec.Ops {
		if name == opNames[opReq] || s.Timed == 0 {
			continue
		}
		rec.Metrics[name+"_ns"] = metric{Value: s.MeanNs, Unit: "ns", N: int64(s.Timed)}
		rec.Metrics[name+"_p99_ns"] = metric{Value: s.P99ns, Unit: "ns", N: int64(s.Timed)}
	}
	if strings.HasPrefix(workload, "serve-") {
		rec.Metrics["bench.session_p999_us"] = layers["bench.req_p999_us"]
	}
	lad := o.traced.tr.ladder(o.traced.untracedP50)
	rec.Ladder = &lad
	rec.TraceFile = filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	if err := o.traced.tr.writeSpans(rec.TraceFile); err != nil {
		return nil, nil, err
	}
	return rec, res, nil
}

// withWorkloadNames adds to the contract's end-to-end metrics the
// workload's own names for them (<kernel>_s on apps-*, sessions_per_s
// and session_p50_us on serve-*) and two the last line leaves out:
// req_p99_us (session_p99_us on serve-*), whose run-to-run spread on
// apps-* exceeds any bound the contract allows, and fail_ratio, carried
// in the last line as attempted and failed because a metric that reads
// 0 on every correct run cannot have a relative bound.
func withWorkloadNames(workload string, o *outcome, m map[string]metric) map[string]metric {
	out := make(map[string]metric, len(m)+4)
	for k, v := range m {
		out[k] = v
	}
	out["fail_ratio"] = metric{Value: ratio(float64(o.failed), float64(o.attempted)), Unit: "ratio", N: o.attempted}
	out["req_p99_us"] = metric{Value: o.lat.P99 / 1e3, Unit: "us", N: o.measured}
	if kernel, ok := strings.CutPrefix(workload, "apps-"); ok {
		out[kernel+"_s"] = metric{Value: o.lat.P50 / 1e9, Unit: "s", N: o.measured}
		return out
	}
	out["sessions_per_s"] = m["req_per_s"]
	out["session_p50_us"] = m["req_p50_us"]
	out["session_p90_us"] = m["req_p90_us"]
	out["session_p99_us"] = out["req_p99_us"]
	return out
}

func printHuman(f io.Writer, rec *record) {
	p := rec.Provenance
	fmt.Fprintf(f, "perfbench %s seed=%d seconds=%g trace=%v | nproc=%d gomaxprocs=%d workers=%d %s commit=%s tree=%.12s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, p.NumCPU, p.GOMAXPROCS, p.Workers, p.GoVersion, p.Commit, p.TreeSHA256)
	var names []string
	for n := range rec.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Metrics[n]
		if m.N > 0 {
			fmt.Fprintf(f, "  %-30s %16.6g %-6s n=%d\n", n, m.Value, m.Unit, m.N)
		} else {
			fmt.Fprintf(f, "  %-30s %16.6g %s\n", n, m.Value, m.Unit)
		}
	}
	if l := rec.Ladder; l != nil {
		fmt.Fprintf(f, "  ladder: untraced req_p50 %.3f us | traced req_p50 %.3f us = core self %.3f + vmem self %.3f + trace clock %.3f + residual %.1f%% (medians, n=%d)\n",
			l.UntracedReqP50us, l.ReqP50us, l.CoreSelfUs, l.VmemSelfUs, l.ClockUs, 100*l.ResidualFrac, l.N)
	}
	c := rec.Checks
	fmt.Fprintf(f, "  checks: %d/%d failed, invariants %s, stale frees %d (injected %d), ignored frees %d (injected %d)\n",
		c.Failed, c.Attempted, c.Invariants, c.StaleFrees, c.InjectedDoubles, c.IgnoredFrees, c.InjectedWilds)
	for _, b := range c.Balance {
		fmt.Fprintf(f, "  balance: %s\n", b)
	}
}
