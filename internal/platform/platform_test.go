package platform

import (
	"runtime"
	"testing"

	"activego/internal/nvme"
)

func TestDefaultPlatformWiring(t *testing.T) {
	p := Default()
	if p.Host == nil || p.Dev == nil || p.Topo == nil {
		t.Fatal("incomplete platform")
	}
	// The defining asymmetry of §IV-A: internal array bandwidth exceeds
	// the external link.
	internal := p.Dev.Array.Geometry().EffectiveReadBW()
	external := p.Cfg.Inter.D2HBandwidth
	if internal <= external {
		t.Errorf("internal %.1f GB/s must exceed external %.1f GB/s", internal/1e9, external/1e9)
	}
	ratio := internal / external
	if ratio < 1.5 || ratio > 2.5 {
		t.Errorf("internal:external ratio %.2f, paper's is 9:5", ratio)
	}
}

func TestMeasureSlowdown(t *testing.T) {
	p := Default()
	c := p.MeasureSlowdown()
	// The CSE must be slower than the host per core (§II-B1), but in the
	// same order of magnitude.
	if c <= 1 || c > 4 {
		t.Errorf("slowdown constant C = %v, want (1, 4]", c)
	}
	// And it must equal the configured rate ratio.
	want := p.Cfg.Host.Rate / p.Cfg.CSD.CSERate
	if c < want*0.999 || c > want*1.001 {
		t.Errorf("C = %v, rate ratio %v", c, want)
	}
}

func TestEndToEndReadThroughPlatform(t *testing.T) {
	p := Default()
	p.Dev.Store.Preload("x", 1<<20)
	var got nvme.Completion
	p.Host.ReadObject(p.Dev, "x", 0, 1<<20, func(c nvme.Completion) { got = c })
	p.Sim.Run()
	if got.Completed <= 0 {
		t.Error("read never completed")
	}
}

func TestPlatformsAreIndependent(t *testing.T) {
	a := Default()
	b := Default()
	a.Dev.SetAvailability(0.5)
	if b.Dev.CSE.Availability() != 1 {
		t.Error("platforms share state")
	}
}

// TestDefaultPlatformAllocation bounds what one default platform costs
// to build. The 2 TiB flash array's FTL keeps state only for blocks it
// has opened, so construction must not scale with the array's 512Ki
// blocks.
func TestDefaultPlatformAllocation(t *testing.T) {
	const runs, limit = 10, 64 << 10
	Default() // settle one-time package state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		Default()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= limit {
		t.Errorf("platform.Default() allocates %d B, want < %d B", per, limit)
	}
}

// BenchmarkPlatformDefault measures building one default platform:
// simulator, interconnect, host, and CSD with its flash array and FTL.
func BenchmarkPlatformDefault(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Default()
	}
}
