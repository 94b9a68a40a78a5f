package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric declaration of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is BENCHMARK.json: the single declaration of what the
// harness measures. The harness reads its metric names, units and bounds
// from here instead of keeping a second copy.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

const specFile = "BENCHMARK.json"

// loadSpec finds BENCHMARK.json in the working directory or the nearest
// parent (the harness runs from the repository root or from benchmark/)
// and returns it with the directory it was found in.
func loadSpec() (spec *benchSpec, root string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, specFile))
		if err == nil {
			var s benchSpec
			if err := json.Unmarshal(data, &s); err != nil {
				return nil, "", fmt.Errorf("%s: %w", specFile, err)
			}
			return &s, dir, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, "", err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", fmt.Errorf("%s not found in the working directory or any parent", specFile)
		}
		dir = parent
	}
}

// metric looks a declared metric up by name in either section.
func (s *benchSpec) metric(name string) (metricSpec, bool) {
	for _, list := range [][]metricSpec{s.EndToEnd, s.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricSpec{}, false
}

// workloadNames lists the declared workloads in file order.
func (s *benchSpec) workloadNames() []string {
	names := make([]string, len(s.Workloads))
	for i, w := range s.Workloads {
		names[i] = w.Name
	}
	return names
}
