package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// An untraced run is measured in runParts fresh processes, one after
// another, each measuring an equal share of the window with its own
// derived seed. On a shared host a process's speed depends on where its
// memory landed as much as on the code: consecutive processes running
// the same seed differ by several percent, while samples within one
// process agree. Pooling the samples of several processes gives each
// run that variation's median rather than one draw of it.
const runParts = 5

// partSamples bounds the request durations a part sends back: a
// systematic subsample, so pooled quantiles weigh every part by its
// share of the window.
const partSamples = 1 << 16

// part is what one measuring process reports to the parent.
type part struct {
	Attempted       int64     `json:"attempted"`
	Failed          int64     `json:"failed"`
	Measured        int64     `json:"measured"`
	Invariants      string    `json:"invariants,omitempty"`
	Balance         []string  `json:"balance,omitempty"`
	InjectedDoubles int64     `json:"injected_doubles"`
	InjectedWilds   int64     `json:"injected_wilds"`
	StaleFrees      uint64    `json:"stale_frees"`
	IgnoredFrees    uint64    `json:"ignored_frees"`
	SetupS          []float64 `json:"setup_s"`
	ReqNs           []float64 `json:"req_ns"`
	ReqPerS         float64   `json:"req_per_s"`
	MemMB           float64   `json:"mem_mb"`
}

func toPart(o *outcome) part {
	p := part{
		Attempted:       o.attempted,
		Failed:          o.failed,
		Measured:        o.measured,
		Balance:         o.balance,
		InjectedDoubles: o.injectedDoubles,
		InjectedWilds:   o.injectedWilds,
		StaleFrees:      o.final.StaleFrees,
		IgnoredFrees:    o.final.IgnoredFrees,
		SetupS:          o.setupTimes,
		ReqNs:           subsample(o.reqNs, partSamples),
		ReqPerS:         o.reqPerS,
		MemMB:           o.memMB,
	}
	if o.invariantErr != nil {
		p.Invariants = o.invariantErr.Error()
	}
	return p
}

// subsample keeps at most n evenly spaced values of xs.
func subsample(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = xs[i*len(xs)/n]
	}
	return out
}

// measureParts runs the parts and pools them into one outcome: request
// quantiles and set-up times over the pooled samples, rates and memory
// as the median over parts, checks summed.
func measureParts(workload string, seed uint64, seconds float64) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	o := &outcome{}
	var rates, mems []float64
	for i := 0; i < runParts; i++ {
		cmd := exec.Command(exe, "--workload", workload, "--seed", strconv.FormatUint(deriveSeed(seed, i), 10),
			"--seconds", strconv.FormatFloat(seconds/runParts, 'g', -1, 64), "--part")
		var out bytes.Buffer
		cmd.Stdout = &out
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("part %d: %w", i, err)
		}
		var p part
		if err := json.Unmarshal(out.Bytes(), &p); err != nil {
			return nil, fmt.Errorf("part %d output: %w", i, err)
		}
		o.attempted += p.Attempted
		o.failed += p.Failed
		o.measured += p.Measured
		if p.Invariants != "" && o.invariantErr == nil {
			o.invariantErr = errors.New(p.Invariants)
		}
		o.balance = append(o.balance, p.Balance...)
		o.injectedDoubles += p.InjectedDoubles
		o.injectedWilds += p.InjectedWilds
		o.final.StaleFrees += p.StaleFrees
		o.final.IgnoredFrees += p.IgnoredFrees
		o.setupTimes = append(o.setupTimes, p.SetupS...)
		o.reqNs = append(o.reqNs, p.ReqNs...)
		rates = append(rates, p.ReqPerS)
		mems = append(mems, p.MemMB)
	}
	o.lat = summarize(append([]float64(nil), o.reqNs...))
	o.reqPerS = median(rates)
	o.memMB = median(mems)
	return o, nil
}

// measure runs the workload once in this process.
func measure(workload string, seed uint64, seconds float64, trace bool, corruptRef bool) (*outcome, error) {
	if kernel, ok := strings.CutPrefix(workload, "apps-"); ok {
		return runApps(appsConfig{kernel: kernel, seed: seed, seconds: seconds, trace: trace, corruptRef: corruptRef})
	}
	return runServe(serveConfig{gentag: workload == "serve-gentag", seed: seed, seconds: seconds, trace: trace, workers: workers()})
}
