// Package bench makes benchmark runs machine-comparable: every
// benchsuite experiment serializes a schema-versioned run manifest
// (BENCH_<exp>.json) carrying the environment (Go version, platform,
// seed, scale), per-workload measured values with explicit
// better-is directions, the planner's choices, a metrics snapshot, and
// Go runtime stats — and Compare diffs two manifests benchstat-style
// with configurable regression thresholds, so CI can gate on "did this
// PR make anything slower".
//
// Only simulated quantities are gated: the simulator is deterministic,
// so a tracked value that moves between two revisions moved because the
// code changed, not because the machine was noisy. Wall-clock material
// (the metrics snapshot's phase timers, runtime stats, creation time)
// rides along as context and is never compared.
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"

	"activego/internal/metrics"
)

// Schema is the manifest schema version; bump on incompatible layout
// changes. Compare refuses manifests with mismatched schemas.
const Schema = 1

// Direction of a tracked value: which way is better. Values with an
// empty direction are informational and never gated.
const (
	LowerIsBetter  = "lower"
	HigherIsBetter = "higher"
)

// Value is one named, gated or informational measurement of a workload.
type Value struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit,omitempty"`
	// Better is LowerIsBetter, HigherIsBetter, or "" (informational).
	Better string `json:"better,omitempty"`
}

// Workload is one application's results within a manifest.
type Workload struct {
	Name string `json:"name"`
	// Planner names the algorithm that produced the partition (plan
	// package labels), empty when the experiment has no planning step.
	Planner string `json:"planner,omitempty"`
	// PlanLines is the offloaded line set the planner chose.
	PlanLines []int   `json:"plan_lines,omitempty"`
	Values    []Value `json:"values"`
}

// Add appends a measured value.
func (w *Workload) Add(name string, v float64, unit, better string) {
	w.Values = append(w.Values, Value{Name: name, Value: v, Unit: unit, Better: better})
}

// RuntimeStats captures the Go runtime's view of the producing process —
// informational only (wall-clock side of the run).
type RuntimeStats struct {
	HeapAllocBytes  uint64 `json:"heap_alloc_bytes"`
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	NumGC           uint32 `json:"num_gc"`
	NumGoroutine    int    `json:"num_goroutine"`
}

// Manifest is one experiment run, serialized as BENCH_<exp>.json.
type Manifest struct {
	Schema     int    `json:"schema"`
	Experiment string `json:"experiment"`

	// Environment.
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`

	// Run parameters: the seed and scale divisor that make the simulated
	// numbers reproducible.
	Seed     int64 `json:"seed"`
	ScaleDiv int64 `json:"scalediv"`

	Workloads []Workload `json:"workloads"`

	// Metrics is the producing process's registry snapshot (phase
	// timers, executor counters, trace-derived gauges); informational.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Runtime is the producing process's Go runtime stats; informational.
	Runtime *RuntimeStats `json:"runtime,omitempty"`
}

// NewManifest builds a manifest shell for one experiment, stamping the
// environment and run parameters. Callers append Workloads and
// optionally attach Metrics and Runtime.
func NewManifest(experiment string, seed, scaleDiv int64) *Manifest {
	return &Manifest{
		Schema:     Schema,
		Experiment: experiment,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		Seed:       seed,
		ScaleDiv:   scaleDiv,
	}
}

// CaptureRuntime fills Runtime from the current process.
func (m *Manifest) CaptureRuntime() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.Runtime = &RuntimeStats{
		HeapAllocBytes:  ms.HeapAlloc,
		TotalAllocBytes: ms.TotalAlloc,
		NumGC:           ms.NumGC,
		NumGoroutine:    runtime.NumGoroutine(),
	}
}

// Workload returns the named workload entry, nil when absent.
func (m *Manifest) Workload(name string) *Workload {
	for i := range m.Workloads {
		if m.Workloads[i].Name == name {
			return &m.Workloads[i]
		}
	}
	return nil
}

// Write serializes the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = m.Write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Read parses a manifest, rejecting unknown schema versions (a v0/v2
// file comparing clean against a v1 baseline would be a silent lie).
func Read(r io.Reader) (*Manifest, error) {
	var m Manifest
	dec := json.NewDecoder(r)
	if err := dec.Decode(&m); err != nil {
		return nil, fmt.Errorf("bench: parse manifest: %w", err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("bench: manifest schema %d, this binary speaks %d", m.Schema, Schema)
	}
	return &m, nil
}

// ReadFile reads a manifest from path.
func ReadFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := Read(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}
