package driver_test

import (
	"fmt"

	"activego/internal/driver"
	"activego/internal/platform"
)

// ExampleNewMix builds a weighted traffic mix and shows how uniform
// draws map to scenarios by cumulative weight.
func ExampleNewMix() {
	mix, err := driver.NewMix(
		driver.MixEntry{Scenario: driver.Synthetic("point-query", 2, 2e5, 1<<16), Weight: 3},
		driver.MixEntry{Scenario: driver.Synthetic("analytics", 8, 4e6, 1<<22), Weight: 1},
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, u := range []float64{0.0, 0.5, 0.74, 0.75, 0.99} {
		fmt.Printf("u=%.2f -> %s\n", u, mix.Pick(u).Name)
	}
	// Output:
	// u=0.00 -> point-query
	// u=0.50 -> point-query
	// u=0.74 -> point-query
	// u=0.75 -> analytics
	// u=0.99 -> analytics
}

// ExampleRun serves a short deterministic Poisson burst of synthetic
// requests against one platform and prints the accounting identity
// every run satisfies: offered = completed + failed + shed.
func ExampleRun() {
	mix, err := driver.NewMix(
		driver.MixEntry{Scenario: driver.Synthetic("point-query", 4, 5e5, 1<<18), Weight: 1},
	)
	if err != nil {
		fmt.Println(err)
		return
	}
	res, err := driver.Run(platform.Default(), driver.Config{
		Seed:     42,
		Duration: 0.25,
		Tenants: []driver.TenantConfig{{
			Name:    "burst",
			Mix:     mix,
			Arrival: driver.Arrival{Process: driver.Poisson, QPS: 40},
		}},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("offered=%d completed=%d failed=%d shed=%d fairness=%.2f\n",
		res.Offered, res.Completed, res.Failed, res.Shed, res.Fairness)
	fmt.Printf("balanced=%v\n", res.Offered == res.Completed+res.Failed+res.Shed)
	// Output:
	// offered=11 completed=11 failed=0 shed=0 fairness=1.00
	// balanced=true
}
