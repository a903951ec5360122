package sim

import "testing"

func TestOnlyUse(t *testing.T) {
	if TestOnly != 3 {
		t.Fatal(TestOnly)
	}
}
