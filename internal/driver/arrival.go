package driver

import (
	"fmt"
	"math"

	"activego/internal/fault"
)

// Process names an arrival discipline for a tenant's request stream.
type Process string

// Arrival disciplines. The open-loop processes (poisson, bursty,
// uniform) generate arrival times up front from the tenant's seeded
// stream, so offered load never depends on service times — slow service
// builds queues instead of silently thinning traffic. The closed loop
// instead runs a fixed worker pool where each worker thinks, issues,
// and waits, so offered load self-limits the way a fixed user
// population does.
const (
	// Poisson is memoryless open-loop traffic at rate QPS: exponential
	// interarrivals −ln(1−U)/λ.
	Poisson Process = "poisson"
	// Bursty is an on/off-modulated Poisson process: within each Period
	// the first DutyCycle fraction runs at QPS·BurstFactor and the rest
	// at a compensating low rate, so the long-run average stays QPS.
	Bursty Process = "bursty"
	// Uniform is a deterministic open-loop ticker at exactly 1/QPS
	// spacing — the no-variance control for the Poisson comparisons.
	Uniform Process = "uniform"
	// Closed is a closed loop: Workers concurrent users, each issuing a
	// request, waiting for its completion, thinking for Think seconds,
	// and issuing again until the horizon.
	Closed Process = "closed"
)

// Arrival configures one tenant's traffic.
type Arrival struct {
	Process Process
	// QPS is the long-run offered rate for the open-loop processes, in
	// requests per simulated second.
	QPS float64
	// BurstFactor multiplies QPS inside a burst window (Bursty only);
	// values <= 1 degenerate to plain Poisson.
	BurstFactor float64
	// DutyCycle is the burst window's fraction of each Period, in (0,1)
	// (Bursty only). 0 defaults to 0.25.
	DutyCycle float64
	// Period is the on/off modulation period in simulated seconds
	// (Bursty only). 0 defaults to 1.
	Period float64
	// Workers is the closed-loop user population (Closed only); values
	// < 1 mean 1.
	Workers int
	// Think is the closed-loop think time between a completion and the
	// worker's next request, in simulated seconds (Closed only).
	Think float64
}

// Validate rejects arrival configurations the generator cannot honor.
func (a Arrival) Validate() error {
	switch a.Process {
	case Poisson, Bursty, Uniform:
		if a.QPS <= 0 || math.IsNaN(a.QPS) || math.IsInf(a.QPS, 0) {
			return fmt.Errorf("driver: %s arrival needs QPS > 0, got %v", a.Process, a.QPS)
		}
		if a.Process == Bursty {
			if a.BurstFactor < 0 || math.IsNaN(a.BurstFactor) || math.IsInf(a.BurstFactor, 0) {
				return fmt.Errorf("driver: bursty BurstFactor %v out of range", a.BurstFactor)
			}
			if a.DutyCycle < 0 || a.DutyCycle >= 1 || math.IsNaN(a.DutyCycle) {
				return fmt.Errorf("driver: bursty DutyCycle %v outside [0,1)", a.DutyCycle)
			}
			if a.Period < 0 || math.IsNaN(a.Period) || math.IsInf(a.Period, 0) {
				return fmt.Errorf("driver: bursty Period %v out of range", a.Period)
			}
		}
	case Closed:
		if a.Think < 0 || math.IsNaN(a.Think) || math.IsInf(a.Think, 0) {
			return fmt.Errorf("driver: closed Think %v out of range", a.Think)
		}
	default:
		return fmt.Errorf("driver: unknown arrival process %q", a.Process)
	}
	return nil
}

func (a Arrival) dutyCycle() float64 {
	if a.DutyCycle == 0 {
		return 0.25
	}
	return a.DutyCycle
}

func (a Arrival) period() float64 {
	if a.Period == 0 {
		return 1
	}
	return a.Period
}

func (a Arrival) workers() int {
	if a.Workers < 1 {
		return 1
	}
	return a.Workers
}

// times generates the open-loop arrival offsets in [0, horizon) for a,
// consuming draws from rng. Closed-loop arrivals are event-driven and
// return nil here. The list is allocated once, at the count a is
// expected to generate, however long the horizon.
func (a Arrival) times(rng *fault.Stream, horizon float64) []float64 {
	if a.Process == Bursty && a.BurstFactor <= 1 {
		// No amplification requested: plain Poisson at QPS.
		a.Process = Poisson
	}
	switch a.Process {
	case Uniform:
		out := make([]float64, 0, a.capacity(horizon))
		for t := 0.0; t < horizon; t += 1 / a.QPS {
			out = append(out, t)
		}
		return out
	case Poisson:
		out := make([]float64, 0, a.capacity(horizon))
		t := 0.0
		for {
			t += expDraw(rng, a.QPS)
			if t >= horizon {
				return out
			}
			out = append(out, t)
		}
	case Bursty:
		out := make([]float64, 0, a.capacity(horizon))
		duty, period := a.dutyCycle(), a.period()
		high, low := a.burstRates()
		// Thinning against the peak rate: candidate arrivals at rate
		// high, each kept with probability rate(t)/high. One uniform
		// draw per candidate keeps the draw count — and therefore the
		// stream — independent of accept/reject outcomes.
		t := 0.0
		for {
			t += expDraw(rng, high)
			if t >= horizon {
				return out
			}
			phase := math.Mod(t, period) / period
			rate := low
			if phase < duty {
				rate = high
			}
			if rng.Uniform()*high < rate {
				out = append(out, t)
			}
		}
	default:
		return nil
	}
}

// burstRates returns a bursty process's rate inside its burst window and
// outside it. The off-window rate compensates so the long-run average is
// exactly QPS; a burst too tall to compensate clamps it at zero (pure
// on/off traffic).
func (a Arrival) burstRates() (high, low float64) {
	duty := a.dutyCycle()
	high = a.QPS * a.BurstFactor
	low = max(0, a.QPS*(1-duty*a.BurstFactor)/(1-duty))
	return high, low
}

// capacity sizes an open-loop arrival list over horizon: the ticker's
// count for Uniform, which the spacing fixes, and for the random
// processes the expected count plus four standard deviations, so a
// list rarely outgrows it.
func (a Arrival) capacity(horizon float64) int {
	mean := a.QPS * horizon
	if a.Process == Uniform {
		return int(mean) + 2 // ceil(mean) ticks, and one for rounding in the accumulated spacing
	}
	if a.Process == Bursty {
		// The rate integrated over [0, horizon): whole periods, then the
		// last period's share of its burst window and of the rest.
		duty, period := a.dutyCycle(), a.period()
		high, low := a.burstRates()
		whole := math.Floor(horizon / period)
		rest := horizon - whole*period
		on := min(rest, duty*period)
		mean = whole*period*(duty*high+(1-duty)*low) + on*high + (rest-on)*low
	}
	return int(mean+4*math.Sqrt(mean)) + 1
}

// expDraw returns one exponential interarrival at rate λ.
func expDraw(rng *fault.Stream, lambda float64) float64 {
	u := rng.Uniform()
	return -math.Log1p(-u) / lambda
}
