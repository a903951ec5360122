package driver

import "activego/internal/fault"

// ArrivalTimesForTest exposes the open-loop arrival generator to the
// external test package: times in [0, horizon) for a seeded stream.
func ArrivalTimesForTest(a Arrival, seed uint64, horizon float64) []float64 {
	return a.times(fault.NewStream(fault.Mix64(seed)), horizon)
}
