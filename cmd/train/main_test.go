package main

import (
	"fmt"
	"os"
)

// Example_memcached compares every technique on one service's
// profiling sweep at a small sample count.
func Example_memcached() {
	if err := run([]string{"-app", "memcached", "-samples", "200"}, os.Stdout); err != nil {
		fmt.Println(err)
	}
	// Output:
	// memcached (LS) — 200 samples
	// model                   DT      KNN     SV      MLP     LR      deploy
	// ----------------------  ------  ------  ------  ------  ------  ------
	// feasibility (accuracy)  0.8750  0.8250  0.8750  0.9500  0.8750  MLP
	// latency log10 (R²)     0.9265  0.7686  0.6820  0.9574  0.7295  MLP
	// power (R²)             0.8053  0.9289  0.8796  0.9701  0.9001  MLP
}
