package main

// Example pins the seeded sweep.
func Example() {
	main()
	// Output:
	// training predictor...
	//
	//                                   sturgeon                parties
	//      cap      cap_w   BE_thpt%        QoS%   BE_thpt%        QoS%
	//      90%       90.2       33.7      100.00       38.4       92.56
	//     100%      100.2       56.3       95.55       43.0       90.69
	//     110%      110.3       68.6       95.10       50.5       96.71
	//     120%      120.3       71.1       96.59       50.5       96.71
	//     130%      130.3       71.1       96.59       50.5       96.71
	//
	// Each extra watt of cap goes to the BE side's frequency; Sturgeon's
	// predictor finds the headroom immediately, the feedback baseline
	// creeps toward it one DVFS step per interval.
}
