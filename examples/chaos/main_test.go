package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// Example_static is the fast chaos recipe: static controllers (no model
// training) under the default fault mix, which still exercises the
// failure detector's eviction path.
func Example_static() {
	args := []string{"-static", "-nodes", "4", "-seed", "7", "-dur", "200", "-faults", "default"}
	if err := run(args, os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// == chaos fleet: 4 nodes, seed 7, 200 s ==
	// qos_rate      1.0000
	// be_units/s    0
	// fleet_power   350.8 W (70.16 kJ, 0.0 units/kJ)
	// lost_queries  0 (dispatched to crashed nodes before eviction)
	// health        1 evictions, 0 readmissions, 2 unhealthy node·intervals
	// faults        pwr stuck/noise/drop 19/7/2, lat stale/drop 25/17, act drop/partial 0/0, crash 0
	//
	// Re-running with the same -seed and -faults reproduces this output exactly.
}

func TestUnknownFaultKnobFails(t *testing.T) {
	err := run([]string{"-static", "-faults", "power.stuk=1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"power.stuk"`) {
		t.Errorf("got %v, want an error naming the unknown knob", err)
	}
}
