package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// span is one timed call into a layer, or a whole op. Spans are made
// only in traced ops, by this runner, around its calls into each layer's
// public entry point; nothing inside the program is instrumented.
type span struct {
	Name   string  `json:"name"`
	Op     int     `json:"op"`
	Parent int     `json:"parent"` // index of the enclosing span; -1 for an op span
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Alloc  uint64  `json:"alloc_bytes"` // Go heap bytes allocated inside the span
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: begin and end do nothing and read no clock.
type tracer struct {
	t0     time.Time
	op     int
	spans  []span
	alloc0 []uint64 // TotalAlloc at each span's begin
	open   []int    // stack of open span indices
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the innermost open one. The heap statistics
// are read before the clock so the read's own stop-the-world pause falls
// outside the span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.t0).Seconds()})
	t.alloc0 = append(t.alloc0, ms.TotalAlloc)
	t.open = append(t.open, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	end := time.Since(t.t0).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.spans[i].End = end
	t.spans[i].Alloc = ms.TotalAlloc - t.alloc0[i]
	t.open = t.open[:len(t.open)-1]
}

// layerCost is one layer's self cost within one op.
type layerCost struct {
	wall    float64
	allocMB float64
}

// selfCosts sums, per layer name, each span's duration and allocation
// minus those of its child spans, over the spans of op. The op span's
// own self time is the part of the op no layer span covers; it is
// returned under the name "op".
func (t *tracer) selfCosts(op int) map[string]layerCost {
	childWall := map[int]float64{}
	childAlloc := map[int]uint64{}
	for _, s := range t.spans {
		if s.Op == op && s.Parent >= 0 {
			childWall[s.Parent] += s.End - s.Start
			childAlloc[s.Parent] += s.Alloc
		}
	}
	out := map[string]layerCost{}
	for i, s := range t.spans {
		if s.Op != op {
			continue
		}
		c := out[s.Name]
		c.wall += s.End - s.Start - childWall[i]
		c.allocMB += float64(s.Alloc-childAlloc[i]) / 1e6
		out[s.Name] = c
	}
	return out
}

// write saves every span as one JSON document.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []span `json:"spans"`
	}{t.spans}); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
