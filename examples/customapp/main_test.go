package main

// Example pins the seeded run of the custom pair at its small
// profiling sweep.
func Example() {
	main()
	// Output:
	// custom pair: inference + compactor | budget 92.2 W | target 5.0 ms
	// profiling and training...
	// t=  1s qps= 1600 p95= 1.54ms power= 78.1W compactor=    0 units/s <20C, 2.2F, 20L; 0C, 1.2F, 0L>
	// t= 11s qps= 1600 p95= 2.28ms power= 87.4W compactor=  326 units/s <7C, 1.3F, 9L; 13C, 1.6F, 11L>
	// t= 21s qps= 4000 p95= 2.34ms power= 86.2W compactor=  287 units/s <7C, 1.7F, 8L; 13C, 1.2F, 12L>
	// t= 31s qps= 6400 p95= 3.01ms power= 89.1W compactor=  221 units/s <12C, 1.3F, 9L; 8C, 1.6F, 11L>
	// t= 41s qps= 6400 p95= 3.03ms power= 88.0W compactor=  221 units/s <12C, 1.3F, 9L; 8C, 1.6F, 11L>
	// t= 51s qps= 2800 p95= 2.04ms power= 86.7W compactor=  317 units/s <7C, 1.5F, 9L; 13C, 1.5F, 11L>
	//
	// QoS 96.89% | compactor ran at 50.3% of a dedicated machine | trips 0
}
