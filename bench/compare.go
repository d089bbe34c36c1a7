package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
)

// declarations is BENCHMARK.json as the driver reads it.
type declarations struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readDeclarations(path string) (declarations, error) {
	var d declarations
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	return d, nil
}

// readRecords reads a result file: one record, or several concatenated
// (`cat bench/out/run-*-trace0.json > A.json`).
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	dec := json.NewDecoder(f)
	for {
		var r record
		if err := dec.Decode(&r); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no runs", path)
	}
	return recs, nil
}

// verdict is the outcome of comparing one metric on one workload.
type verdict string

const (
	better     verdict = "better"
	within     verdict = "within bound"
	worse      verdict = "worse"
	unresolved verdict = "unresolved"
)

// judge compares the runs of B against the runs of A for one metric.
// change is B's median relative to A's, signed so that positive is worse.
// A metric whose run-to-run spread (on either side) is wider than its
// bound is unresolved: the bound cannot tell a regression from noise.
func judge(a, b []float64, lowerIsBetter bool, bound float64) (v verdict, change, spread float64) {
	ma, mb := median(a), median(b)
	if ma == 0 {
		return unresolved, 0, 0
	}
	change = (mb - ma) / ma
	if !lowerIsBetter {
		change = -change
	}
	for _, side := range [][]float64{a, b} {
		if s, ok := spreadShare(side); ok && s > spread {
			spread = s
		}
	}
	switch {
	case spread > bound:
		return unresolved, change, spread
	case change > bound:
		return worse, change, spread
	case change < -bound:
		return better, change, spread
	default:
		return within, change, spread
	}
}

// compareFiles prints one row per (metric, workload) present in both
// files and reports whether any end-to-end metric got worse.
func compareFiles(out io.Writer, declPath, pathA, pathB string) (anyWorse bool, err error) {
	decl, err := readDeclarations(declPath)
	if err != nil {
		return false, err
	}
	ra, err := readRecords(pathA)
	if err != nil {
		return false, err
	}
	rb, err := readRecords(pathB)
	if err != nil {
		return false, err
	}
	// values[workload][metric] over the untraced runs of one file.
	collect := func(recs []record) map[string]map[string][]float64 {
		m := make(map[string]map[string][]float64)
		for _, r := range recs {
			if r.Trace {
				continue
			}
			w := r.Environment.Workload
			if m[w] == nil {
				m[w] = make(map[string][]float64)
			}
			for name, v := range r.Metrics {
				m[w][name] = append(m[w][name], v.Value)
			}
		}
		return m
	}
	va, vb := collect(ra), collect(rb)
	var names []string
	for w := range va {
		if vb[w] != nil {
			names = append(names, w)
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return false, errors.New("the two files share no workload with untraced runs")
	}
	fmt.Fprintf(out, "%-14s %-12s %14s %14s %9s %8s %7s  %s\n", "workload", "metric", "A median", "B median", "change", "spread", "bound", "verdict")
	for _, w := range names {
		for _, m := range decl.EndToEnd {
			a, b := va[w][m.Name], vb[w][m.Name]
			if len(a) == 0 || len(b) == 0 || m.Bound == nil {
				continue
			}
			v, change, spread := judge(a, b, m.Better == "lower", *m.Bound)
			anyWorse = anyWorse || v == worse
			fmt.Fprintf(out, "%-14s %-12s %14.4f %14.4f %+8.1f%% %7.1f%% %6.0f%%  %s (n=%d,%d)\n",
				w, m.Name, median(a), median(b), 100*change, 100*spread, 100**m.Bound, v, len(a), len(b))
		}
	}
	return anyWorse, nil
}
