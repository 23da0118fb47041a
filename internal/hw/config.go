package hw

import (
	"fmt"
)

// Alloc is the resource share handed to one application: a number of
// dedicated logical cores running at a common frequency, plus a number of
// exclusively assigned LLC ways. It corresponds to one half of the paper's
// <C, F, L> notation.
type Alloc struct {
	Cores   int
	Freq    GHz
	LLCWays int
}

// String renders the allocation in the paper's "<8C, 1.2F, 7L>" style.
func (a Alloc) String() string {
	return fmt.Sprintf("<%dC, %.1fF, %dL>", a.Cores, float64(a.Freq), a.LLCWays)
}

// Validate reports whether the allocation fits within the spec on its own.
func (a Alloc) Validate(s Spec) error {
	switch {
	case a.Cores < 0 || a.Cores > s.Cores:
		return fmt.Errorf("hw: allocation of %d cores outside [0, %d]", a.Cores, s.Cores)
	case a.LLCWays < 0 || a.LLCWays > s.LLCWays:
		return fmt.Errorf("hw: allocation of %d LLC ways outside [0, %d]", a.LLCWays, s.LLCWays)
	case a.Cores > 0 && (a.Freq < s.FreqMin || a.Freq > s.FreqMax):
		return fmt.Errorf("hw: frequency %.2f GHz outside [%.2f, %.2f]", float64(a.Freq), float64(s.FreqMin), float64(s.FreqMax))
	}
	return nil
}

// Config is a complete co-location configuration
// <C1, F1, L1; C2, F2, L2>: the LS service's allocation followed by the BE
// application's allocation. Both allocations are exclusive partitions of
// the server (paper §III-C).
type Config struct {
	LS Alloc
	BE Alloc
}

// String renders the configuration in the paper's notation.
func (c Config) String() string {
	return fmt.Sprintf("<%dC, %.1fF, %dL; %dC, %.1fF, %dL>",
		c.LS.Cores, float64(c.LS.Freq), c.LS.LLCWays,
		c.BE.Cores, float64(c.BE.Freq), c.BE.LLCWays)
}

// Validate reports whether the two allocations individually fit the spec
// and jointly do not oversubscribe cores or LLC ways.
func (c Config) Validate(s Spec) error {
	return ValidatePartition(s, c.LS, c.BE)
}

// ValidatePartition reports whether every allocation fits the spec on
// its own and together they do not oversubscribe cores or LLC ways — the
// joint-capacity check of a pair's Config and of a k-application
// partition alike (allocations are exclusive, paper §III-C).
func ValidatePartition(s Spec, p ...Alloc) error {
	cores, ways := 0, 0
	for i, a := range p {
		if err := a.Validate(s); err != nil {
			return fmt.Errorf("hw: app %d %v: %w", i, a, err)
		}
		cores += a.Cores
		ways += a.LLCWays
	}
	if cores > s.Cores {
		return fmt.Errorf("hw: partition allocates %d cores, spec has %d", cores, s.Cores)
	}
	if ways > s.LLCWays {
		return fmt.Errorf("hw: partition allocates %d LLC ways, spec has %d", ways, s.LLCWays)
	}
	return nil
}

// SoloLS returns the configuration that hands every resource to the LS
// service at maximum frequency — the paper's initialization (Alg. 1 line 1).
func SoloLS(s Spec) Config {
	return Config{
		LS: Alloc{Cores: s.Cores, Freq: s.FreqMax, LLCWays: s.LLCWays},
		BE: Alloc{Cores: 0, Freq: s.FreqMin, LLCWays: 0},
	}
}

// SoloBE returns the configuration that hands every resource to the BE
// application at maximum frequency (used for solo-run normalization).
func SoloBE(s Spec) Config {
	return Config{
		LS: Alloc{Cores: 0, Freq: s.FreqMin, LLCWays: 0},
		BE: Alloc{Cores: s.Cores, Freq: s.FreqMax, LLCWays: s.LLCWays},
	}
}

// Complement fills the BE allocation with every core and LLC way the LS
// allocation leaves free, at frequency f.
func Complement(s Spec, ls Alloc, f GHz) Config {
	return Config{
		LS: ls,
		BE: Alloc{Cores: s.Cores - ls.Cores, Freq: f, LLCWays: s.LLCWays - ls.LLCWays},
	}
}

// EnumerateConfigs calls fn for every configuration in the exhaustive
// search space of §V-B: all LS core counts 1..Cores-1 and LLC ways
// 1..LLCWays-1 (the BE side takes the complement), and all frequency
// levels for both sides. fn returning false stops the enumeration.
//
// The visit count matches Spec.ConfigSpace up to the boundary exclusions
// that keep both applications runnable.
func EnumerateConfigs(s Spec, fn func(Config) bool) {
	freqs := s.FreqLevels()
	for c1 := 1; c1 < s.Cores; c1++ {
		for l1 := 1; l1 < s.LLCWays; l1++ {
			for _, f1 := range freqs {
				for _, f2 := range freqs {
					cfg := Config{
						LS: Alloc{Cores: c1, Freq: f1, LLCWays: l1},
						BE: Alloc{Cores: s.Cores - c1, Freq: f2, LLCWays: s.LLCWays - l1},
					}
					if !fn(cfg) {
						return
					}
				}
			}
		}
	}
}
