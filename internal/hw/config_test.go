package hw

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestConfigString(t *testing.T) {
	c := Config{
		LS: Alloc{Cores: 8, Freq: 1.2, LLCWays: 7},
		BE: Alloc{Cores: 12, Freq: 2.2, LLCWays: 13},
	}
	want := "<8C, 1.2F, 7L; 12C, 2.2F, 13L>"
	if got := c.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
}

func TestConfigValidate(t *testing.T) {
	s := DefaultSpec()
	ok := Config{
		LS: Alloc{Cores: 4, Freq: 1.6, LLCWays: 6},
		BE: Alloc{Cores: 16, Freq: 1.8, LLCWays: 14},
	}
	if err := ok.Validate(s); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}

	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{
			"core oversubscription",
			Config{LS: Alloc{12, 1.6, 6}, BE: Alloc{12, 1.8, 14}},
			"cores",
		},
		{
			"way oversubscription",
			Config{LS: Alloc{4, 1.6, 12}, BE: Alloc{16, 1.8, 12}},
			"ways",
		},
		{
			"frequency out of range",
			Config{LS: Alloc{4, 3.6, 6}, BE: Alloc{16, 1.8, 14}},
			"frequency",
		},
		{
			"negative cores",
			Config{LS: Alloc{-1, 1.6, 6}, BE: Alloc{16, 1.8, 14}},
			"cores",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate(s)
			if err == nil {
				t.Fatalf("Validate accepted %v", tc.cfg)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

func TestSoloConfigs(t *testing.T) {
	s := DefaultSpec()
	ls := SoloLS(s)
	if err := ls.Validate(s); err != nil {
		t.Errorf("SoloLS invalid: %v", err)
	}
	if ls.LS.Cores != s.Cores || ls.LS.LLCWays != s.LLCWays || ls.LS.Freq != s.FreqMax {
		t.Errorf("SoloLS = %v, want all resources at max frequency", ls)
	}
	be := SoloBE(s)
	if err := be.Validate(s); err != nil {
		t.Errorf("SoloBE invalid: %v", err)
	}
	if be.BE.Cores != s.Cores || be.BE.LLCWays != s.LLCWays {
		t.Errorf("SoloBE = %v, want all resources on the BE side", be)
	}
}

func TestComplement(t *testing.T) {
	s := DefaultSpec()
	cfg := Complement(s, Alloc{Cores: 4, Freq: 1.6, LLCWays: 6}, 1.8)
	if cfg.BE.Cores != 16 || cfg.BE.LLCWays != 14 || cfg.BE.Freq != 1.8 {
		t.Errorf("Complement = %v, want <16C, 1.8F, 14L> on BE side", cfg)
	}
	if err := cfg.Validate(s); err != nil {
		t.Errorf("Complement produced invalid config: %v", err)
	}
}

func TestEnumerateConfigsAllValidAndExhaustive(t *testing.T) {
	s := Spec{Cores: 4, FreqMin: 1.0, FreqMax: 1.2, FreqStep: 0.1, LLCWays: 3, LLCSizeMB: 6}
	n := 0
	EnumerateConfigs(s, func(c Config) bool {
		n++
		if err := c.Validate(s); err != nil {
			t.Fatalf("enumerated invalid config %v: %v", c, err)
		}
		if c.LS.Cores+c.BE.Cores != s.Cores {
			t.Fatalf("config %v does not partition all cores", c)
		}
		if c.LS.LLCWays+c.BE.LLCWays != s.LLCWays {
			t.Fatalf("config %v does not partition all ways", c)
		}
		return true
	})
	// (Cores-1) C1 choices × (Ways-1) L1 choices × freqs².
	want := 3 * 2 * 3 * 3
	if n != want {
		t.Errorf("enumerated %d configs, want %d", n, want)
	}
}

func TestEnumerateConfigsEarlyStop(t *testing.T) {
	s := DefaultSpec()
	n := 0
	EnumerateConfigs(s, func(Config) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Errorf("early stop visited %d configs, want 10", n)
	}
}

func TestComplementAlwaysPartitions(t *testing.T) {
	s := DefaultSpec()
	f := func(c, l, flvl uint8) bool {
		ls := Alloc{
			Cores:   int(c)%s.Cores + 0,
			Freq:    s.FreqAtLevel(int(flvl)),
			LLCWays: int(l) % s.LLCWays,
		}
		cfg := Complement(s, ls, s.FreqMax)
		return cfg.LS.Cores+cfg.BE.Cores == s.Cores &&
			cfg.LS.LLCWays+cfg.BE.LLCWays == s.LLCWays
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidatePartition(t *testing.T) {
	spec := DefaultSpec()
	good := []Alloc{
		{Cores: 4, Freq: 1.6, LLCWays: 5},
		{Cores: 6, Freq: 1.8, LLCWays: 5},
		{Cores: 5, Freq: 1.2, LLCWays: 5},
	}
	if err := ValidatePartition(spec, good...); err != nil {
		t.Fatal(err)
	}
	for name, p := range map[string][]Alloc{
		"core oversubscription": {{Cores: 12, Freq: 1.6, LLCWays: 5}, {Cores: 12, Freq: 1.8, LLCWays: 5}},
		"way oversubscription":  {{Cores: 4, Freq: 1.6, LLCWays: 12}, {Cores: 4, Freq: 1.8, LLCWays: 12}},
		"bad allocation":        {{Cores: 4, Freq: 9, LLCWays: 4}, {Cores: 4, Freq: 1.8, LLCWays: 4}},
	} {
		if ValidatePartition(spec, p...) == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// A pair's Config is the two-allocation partition.
	cfg := Config{LS: good[0], BE: good[1]}
	if (cfg.Validate(spec) == nil) != (ValidatePartition(spec, cfg.LS, cfg.BE) == nil) {
		t.Error("Config.Validate disagrees with ValidatePartition")
	}
}
