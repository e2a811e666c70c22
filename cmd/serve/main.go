// Command serve runs the allocator-as-a-service soak (internal/serve)
// and records its grade — sustained sessions/sec and p50/p99/p999
// session latency — into a JSON baseline keyed by label:
//
//	go run ./cmd/serve -label serve -out BENCH_serve.json
//
// Three soaks are recorded: closed-loop saturation with synchronous
// cross-worker frees, the same with remote-free rings, and an open-loop
// Poisson+burst run at roughly half the measured saturation throughput
// (so the tail percentiles grade queueing behavior, not just service
// time). With -smoke it instead runs a seconds-long deterministic soak
// in both free modes, untagged and on a generation-tagged heap with
// injected double and wild frees, asserts zero invariant violations,
// exact injection accounting on the tagged passes and a generous p99
// ceiling, and writes nothing — safe for 1-CPU CI hosts, whose
// numbers must never overwrite a multicore recording (the same
// provenance guard cmd/vmembench uses).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"time"

	"diehard/internal/obs"
	"diehard/internal/serve"
)

// Run is one labeled soak set. CPUs records the host parallelism the
// numbers were measured under — tail latency on a 1-CPU host grades
// scheduler queueing, not the allocator.
type Run struct {
	Date    string             `json:"date"`
	Go      string             `json:"go"`
	CPUs    int                `json:"cpus,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

// File is the on-disk schema of BENCH_serve.json.
type File struct {
	Runs map[string]Run `json:"runs"`
}

func main() {
	var (
		label    = flag.String("label", "serve", "label for this measurement set")
		out      = flag.String("out", "BENCH_serve.json", "output file (merged in place)")
		force    = flag.Bool("force", false, "allow a 1-CPU rerun to overwrite an entry recorded on a multicore host")
		smoke    = flag.Bool("smoke", false, "run the seconds-long CI soak (both free modes, untagged and tagged, zero-violation + p99 gate) and write nothing")
		sessions = flag.Int64("sessions", 400_000, "sessions per recorded soak")
		shards   = flag.Int("shards", 8, "heap shards")
		workers  = flag.Int("workers", 8, "worker goroutines")
		withObs  = flag.Bool("obs", false, "attach the telemetry plane (metrics registry + flight recorder) and dump a JSON snapshot to stdout; with -smoke, also gate the acceptance shape")
		httpAddr = flag.String("http", "", "serve /metrics, /trace, and /debug/pprof on this address while the soaks run (implies -obs)")
	)
	flag.Parse()

	var (
		reg *obs.Registry
		rec *obs.Recorder
	)
	if *withObs || *httpAddr != "" {
		reg = obs.NewRegistry()
		rec = obs.NewRecorder(4096)
	}
	if *httpAddr != "" {
		go serveHTTP(*httpAddr, reg, rec)
	}

	if *smoke {
		runSmoke(reg, rec)
		return
	}

	file, err := readFile(*out)
	if err != nil && !os.IsNotExist(err) {
		fatal(fmt.Errorf("%s: %w", *out, err))
	}
	if run, ok := file.Runs[*label]; ok && run.CPUs > 1 && runtime.NumCPU() == 1 && !*force {
		fatal(fmt.Errorf("label %q in %s was recorded with %d CPUs; rerunning on 1 CPU would overwrite the multicore numbers (pass -force to do it anyway)",
			*label, *out, run.CPUs))
	}

	base := serve.Config{
		Shards:   *shards,
		Workers:  *workers,
		Sessions: *sessions,
		Seed:     0x5e44e,
		Obs:      reg,
		Trace:    rec,
	}
	metrics := map[string]float64{}
	record := func(name string, res *serve.Result) {
		metrics[name+"_sessions_per_sec"] = res.SessionsPerSec
		metrics[name+"_p50_ns"] = float64(res.P50)
		metrics[name+"_p99_ns"] = float64(res.P99)
		metrics[name+"_p999_ns"] = float64(res.P999)
		metrics[name+"_fullness_drift"] = res.FullnessEnd
		metrics[name+"_cas_retries"] = float64(res.Stats.CASRetries)
		fmt.Printf("%-22s %10.0f sessions/s  p50 %8dns  p99 %8dns  p999 %8dns\n",
			name, res.SessionsPerSec, res.P50, res.P99, res.P999)
	}

	cfg := base
	cfg.FreeMode = serve.FreeSync
	sync, err := serve.Run(cfg)
	if err != nil {
		fatal(err)
	}
	record("serve_soak_sat_sync", sync)

	cfg = base
	cfg.FreeMode = serve.FreeRemote
	remote, err := serve.Run(cfg)
	if err != nil {
		fatal(err)
	}
	record("serve_soak_sat_remote", remote)
	metrics["serve_soak_remote_frees"] = float64(remote.Stats.RemoteFrees)
	metrics["serve_soak_remote_drains"] = float64(remote.Stats.RemoteDrains)

	// Open loop at ~50% of the just-measured saturation throughput,
	// with bursts: the percentiles now include queueing delay from the
	// scheduled Poisson arrivals.
	cfg = base
	cfg.FreeMode = serve.FreeRemote
	cfg.Rate = remote.SessionsPerSec * 0.5
	cfg.BurstProb = 0.02
	cfg.BurstLen = 64
	open, err := serve.Run(cfg)
	if err != nil {
		fatal(err)
	}
	record("serve_soak_open_burst", open)

	if file.Runs == nil {
		file.Runs = map[string]Run{}
	}
	file.Runs[*label] = Run{
		Date:    time.Now().UTC().Format("2006-01-02"),
		Go:      runtime.Version(),
		CPUs:    runtime.NumCPU(),
		Metrics: metrics,
	}
	enc, err := json.MarshalIndent(&file, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("recorded as %q in %s\n", *label, *out)
	if reg != nil {
		dumpObs(reg, rec)
	}
}

// serveHTTP exposes the live telemetry plane while the soaks run:
// /metrics and /trace render the registry and the merged flight-
// recorder timeline as JSON, /debug/pprof the usual Go profiles. The
// process exits with the soaks; point a scraper at it during long
// recorded runs.
func serveHTTP(addr string, reg *obs.Registry, rec *obs.Recorder) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc, err := json.Marshal(reg.Snapshot())
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(enc)
	})
	mux.HandleFunc("/trace", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc, err := rec.TraceJSON()
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		w.Write(enc)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	if err := http.ListenAndServe(addr, mux); err != nil {
		fmt.Fprintf(os.Stderr, "serve: http: %v\n", err)
	}
}

// obsDoc is the -obs stdout dump: the full metric tree plus the tail
// of the merged trace timeline.
type obsDoc struct {
	Metrics []obs.MetricPoint `json:"metrics"`
	Trace   []obs.Event       `json:"trace"`
}

func dumpObs(reg *obs.Registry, rec *obs.Recorder) {
	doc := obsDoc{Metrics: reg.Snapshot().Metrics, Trace: rec.Tail(256)}
	if doc.Trace == nil {
		doc.Trace = []obs.Event{}
	}
	enc, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		fatal(err)
	}
	os.Stdout.Write(append(enc, '\n'))
}

// runSmoke is the CI gate: a deterministic seconds-long soak in each
// free mode must complete with zero invariant violations (serve.Run
// fails otherwise), zero leftover fullness, and a p99 under a ceiling
// generous enough for a loaded 1-CPU runner yet low enough to catch a
// pathological drain stall (seconds-scale tail). The tagged passes run
// the same sessions through generation-tagged fat pointers with
// injected double and wild frees, and must account for every injection
// exactly: each double free a stale free, each wild free an ignored
// one.
func runSmoke(reg *obs.Registry, rec *obs.Recorder) {
	const p99Ceiling = 250 * time.Millisecond
	for _, mode := range []struct {
		name     string
		fm       serve.FreeMode
		gen      bool
		sessions int64
	}{
		{"sync", serve.FreeSync, false, 120_000},
		{"remote", serve.FreeRemote, false, 120_000},
		{"sync-gen", serve.FreeSync, true, 40_000},
		{"remote-gen", serve.FreeRemote, true, 40_000},
	} {
		cfg := serve.Config{
			Shards:   4,
			Workers:  4,
			Sessions: mode.sessions,
			Seed:     0x5e44e,
			FreeMode: mode.fm,
			GenTags:  mode.gen,
		}
		if mode.gen {
			cfg.ErrorRate = 0.05
		}
		res, err := serve.Run(cfg)
		if err != nil {
			fatal(fmt.Errorf("smoke %s: %w", mode.name, err))
		}
		fmt.Printf("smoke %-10s %10.0f sessions/s  p50 %8dns  p99 %8dns  p999 %8dns\n",
			mode.name, res.SessionsPerSec, res.P50, res.P99, res.P999)
		if res.FullnessEnd != 0 {
			fatal(fmt.Errorf("smoke %s: leaked %v fullness", mode.name, res.FullnessEnd))
		}
		if res.P99 > p99Ceiling.Nanoseconds() {
			fatal(fmt.Errorf("smoke %s: p99 %v exceeds %v", mode.name, time.Duration(res.P99), p99Ceiling))
		}
		if mode.fm == serve.FreeRemote && res.Stats.RemoteFrees == 0 {
			fatal(fmt.Errorf("smoke %s: ring never used", mode.name))
		}
		if !mode.gen {
			continue
		}
		if res.DoubleFrees == 0 {
			fatal(fmt.Errorf("smoke %s: error injection never fired", mode.name))
		}
		if res.Stats.StaleFrees != uint64(res.DoubleFrees) || res.Stats.IgnoredFrees != uint64(res.WildFrees) {
			fatal(fmt.Errorf("smoke %s: StaleFrees/IgnoredFrees %d/%d, injected doubles/wilds %d/%d",
				mode.name, res.Stats.StaleFrees, res.Stats.IgnoredFrees, res.DoubleFrees, res.WildFrees))
		}
	}
	if reg != nil {
		smokeObs(reg, rec)
	}
	fmt.Println("serve smoke passed")
}

// smokeObs is the telemetry acceptance gate: a short mitigated
// fault-scheduled soak with the full plane attached must leave live
// metrics from at least four layers (vmem, core, serve, heal) in the
// registry and a non-empty, stamp-ordered merged trace — then the
// snapshot is dumped so CI logs carry the evidence.
func smokeObs(reg *obs.Registry, rec *obs.Recorder) {
	plan := &serve.FaultPlan{
		OverflowObject: 3, OverflowReach: 24, OverflowEvery: 2,
		DanglingObject: 9, DanglingEvery: 2,
	}
	_, err := serve.Run(serve.Config{
		Shards:   2,
		Workers:  2,
		HeapSize: 2 << 20,
		Sessions: 4000,
		Seed:     0x5e44e,
		FreeMode: serve.FreeRemote,
		Faults:   plan,
		Mitigate: serve.StaticMitigator(
			map[int]int{plan.OverflowObject: plan.OverflowReach + 8},
			map[int]bool{plan.DanglingObject: true},
		),
		Obs:   reg,
		Trace: rec,
	})
	if err != nil {
		fatal(fmt.Errorf("smoke obs: %w", err))
	}
	for _, m := range []string{"vmem.loads", "core.mallocs", "serve.sessions", "heal.quarantined_frees"} {
		v, ok := reg.Get(m)
		if !ok {
			fatal(fmt.Errorf("smoke obs: metric %s missing from registry", m))
		}
		if v == 0 && m != "heal.corruptions" {
			fatal(fmt.Errorf("smoke obs: metric %s reads 0 after the soak", m))
		}
	}
	evs := rec.Snapshot()
	if len(evs) == 0 {
		fatal(fmt.Errorf("smoke obs: flight recorder captured nothing"))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i-1].Seq >= evs[i].Seq {
			fatal(fmt.Errorf("smoke obs: merged trace out of order at %d", i))
		}
	}
	dumpObs(reg, rec)
	fmt.Printf("smoke obs    %d metrics, %d trace events, timeline ordered\n",
		len(reg.Snapshot().Metrics), len(evs))
}

func readFile(path string) (File, error) {
	f := File{Runs: map[string]Run{}}
	raw, err := os.ReadFile(path)
	if err != nil {
		return f, err
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		return f, err
	}
	return f, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "serve: %v\n", err)
	os.Exit(1)
}
