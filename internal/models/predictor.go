package models

import (
	"fmt"
	"math"
	"sync/atomic"

	"sturgeon/internal/hw"
	"sturgeon/internal/mlkit"
	"sturgeon/internal/power"
	"sturgeon/internal/telemetry"
	"sturgeon/internal/workload"
)

// Predictor is the Fig. 5 prediction engine for one co-location pair: it
// answers QoS feasibility for the LS service, throughput for the BE
// application, and total node power for a full configuration.
// FitLS and FitBE fit one half alone — the per-application bundles of
// the k-application search.
type Predictor struct {
	LS workload.Profile
	BE workload.Profile
	// InputLevel is the BE input-size feature used at prediction time
	// (the level the co-located BE application actually runs).
	InputLevel int

	LSFeasible mlkit.Classifier
	// LSLatency predicts log10 of the tail latency; QoSOK requires both
	// the classifier's verdict and a predicted latency safely below the
	// target. The dual check keeps the §V-B binary search off the
	// residual error islands any single learned model has exactly at the
	// feasibility boundary it optimizes against.
	LSLatency mlkit.Regressor
	LSPower   mlkit.Regressor
	BEThpt    mlkit.Regressor
	BEPower   mlkit.Regressor

	// LatencyMargin is the fraction of the QoS target the latency
	// regressor's prediction must stay below (default 0.85, just inside
	// the label guard band). It must stay above the service's intrinsic
	// p95/target floor or no configuration can ever qualify.
	LatencyMargin float64

	// queries counts model invocations (Queries). Total power needs no
	// idle term: the LS power label already contains the platform idle,
	// so PowerW composes LSPower (absolute) + BEPower (incremental).
	queries atomic.Int64
}

// TrainOptions configures Train.
type TrainOptions struct {
	Collect CollectOptions
	// AutoSelect picks the best technique per model on a validation split
	// instead of the fixed defaults — the paper's deployment mode ("all
	// offline-trained models are stored on the server and the most
	// suitable one can be deployed", §V-C).
	AutoSelect bool
	// Techniques override the per-model defaults (the paper's testbed
	// winners: DT for LS feasibility, MLP for BE throughput, KNN for power). Empty strings
	// keep the defaults. Ignored when AutoSelect is set.
	LSFeasibleTech mlkit.Technique
	LSPowerTech    mlkit.Technique
	BEThptTech     mlkit.Technique
	BEPowerTech    mlkit.Technique
}

// LSDatasets bundles the three profiling datasets of one LS service.
type LSDatasets struct {
	Perf, Power, Latency telemetry.Dataset
}

// BEDatasets bundles the two profiling datasets of one BE application.
type BEDatasets struct {
	Thpt, Power telemetry.Dataset
}

// SweepLS runs the LS profiling sweep once; the result can train
// predictors for every pair the service participates in.
func SweepLS(ls workload.Profile, opts CollectOptions) LSDatasets {
	perf, pow, lat := CollectLS(ls, opts)
	return LSDatasets{Perf: perf, Power: pow, Latency: lat}
}

// SweepBE runs the BE profiling sweep once.
func SweepBE(be workload.Profile, opts CollectOptions) BEDatasets {
	thpt, pow := CollectBE(be, opts)
	return BEDatasets{Thpt: thpt, Power: pow}
}

// Train collects profiling sweeps for both applications and fits the four
// models, using the technique each model family won with in §V-C (or a
// validation-selected technique with AutoSelect).
func Train(ls, be workload.Profile, opts TrainOptions) (*Predictor, error) {
	return TrainFromDatasets(ls, be, SweepLS(ls, opts.Collect), SweepBE(be, opts.Collect), opts)
}

// TrainFromDatasets fits the predictor from pre-collected sweeps, letting
// callers share per-application datasets across the 18 co-location pairs.
func TrainFromDatasets(ls, be workload.Profile, lds LSDatasets, bds BEDatasets, opts TrainOptions) (*Predictor, error) {
	seed := opts.Collect.Seed
	pick := func(t, def mlkit.Technique) mlkit.Technique {
		if t == "" {
			return def
		}
		return t
	}
	lsFeasT := pick(opts.LSFeasibleTech, mlkit.DT)
	lsPowT := pick(opts.LSPowerTech, mlkit.KNN)
	beThptT := pick(opts.BEThptTech, mlkit.MLP)
	bePowT := pick(opts.BEPowerTech, mlkit.KNN)
	if opts.AutoSelect {
		if s, err := CompareClassification(lds.Perf, seed); err == nil {
			lsFeasT = Best(s).Technique
		}
		if s, err := CompareRegression(lds.Power, seed); err == nil {
			lsPowT = Best(s).Technique
		}
		if s, err := CompareRegression(bds.Thpt, seed); err == nil {
			beThptT = Best(s).Technique
		}
		if s, err := CompareRegression(bds.Power, seed); err == nil {
			bePowT = Best(s).Technique
		}
	}
	p := &Predictor{LS: ls, BE: be}
	if err := p.fitLS(lds, lsFeasT, lsPowT, seed); err != nil {
		return nil, err
	}
	if err := p.fitBE(bds, beThptT, bePowT, seed); err != nil {
		return nil, err
	}
	return p, nil
}

// FitLS fits the LS half of a predictor alone (feasibility, latency and
// power models at the default techniques): the per-service bundle of the
// k-application search, where each application is searched
// independently (§V-B).
func FitLS(ls workload.Profile, d LSDatasets, seed int64) (*Predictor, error) {
	p := &Predictor{LS: ls}
	return p, p.fitLS(d, mlkit.DT, mlkit.KNN, seed)
}

// FitBE fits the BE half of a predictor alone (throughput and
// incremental power at the default techniques).
func FitBE(be workload.Profile, d BEDatasets, seed int64) (*Predictor, error) {
	p := &Predictor{BE: be}
	return p, p.fitBE(d, mlkit.MLP, mlkit.KNN, seed)
}

// fitLS fits the three LS-side models of Fig. 5.
func (p *Predictor) fitLS(d LSDatasets, feasT, powT mlkit.Technique, seed int64) error {
	p.LSFeasible = feasT.NewClassifier(seed)
	p.LSLatency = mlkit.KNN.NewRegressor(seed)
	p.LSPower = powT.NewRegressor(seed)
	p.LatencyMargin = 0.85
	if err := p.LSLatency.Fit(d.Latency.X, d.Latency.Y); err != nil {
		return fmt.Errorf("models: LS latency fit: %w", err)
	}
	yc := make([]int, d.Perf.Len())
	for i, v := range d.Perf.Y {
		yc[i] = int(v)
	}
	if err := p.LSFeasible.Fit(d.Perf.X, yc); err != nil {
		return fmt.Errorf("models: LS feasibility fit: %w", err)
	}
	if err := p.LSPower.Fit(d.Power.X, d.Power.Y); err != nil {
		return fmt.Errorf("models: LS power fit: %w", err)
	}
	return nil
}

// fitBE fits the two BE-side models of Fig. 5.
func (p *Predictor) fitBE(d BEDatasets, thptT, powT mlkit.Technique, seed int64) error {
	p.InputLevel = p.BE.InputLevel
	if p.InputLevel == 0 {
		p.InputLevel = 3
	}
	p.BEThpt = thptT.NewRegressor(seed)
	p.BEPower = powT.NewRegressor(seed)
	if err := p.BEThpt.Fit(d.Thpt.X, d.Thpt.Y); err != nil {
		return fmt.Errorf("models: BE throughput fit: %w", err)
	}
	if err := p.BEPower.Fit(d.Power.X, d.Power.Y); err != nil {
		return fmt.Errorf("models: BE power fit: %w", err)
	}
	return nil
}

// lsFeatures builds the LS feature vector: the four Lasso-selected raw
// features plus an engineered load-per-capacity column. The derived
// feature folds the operator's knowledge of the machine (hyper-threading
// geometry) into the design matrix, which linearizes the saturation
// boundary the feasibility classifier must learn — without it, the
// binary search of §V-B would home in on the classifier's residual
// error islands.
func lsFeatures(a hw.Alloc, qps float64) []float64 {
	capacity := workload.EffectiveParallelism(a.Cores) * float64(a.Freq)
	if capacity < 1e-9 {
		capacity = 1e-9
	}
	return []float64{qps, float64(a.Cores), float64(a.Freq), float64(a.LLCWays), qps / capacity}
}

// beFeatureVec builds the BE feature vector (input level, raw allocation,
// and the same engineered capacity column).
func beFeatureVec(level int, a hw.Alloc) []float64 {
	capacity := workload.EffectiveParallelism(a.Cores) * float64(a.Freq)
	return []float64{float64(level), float64(a.Cores), float64(a.Freq), float64(a.LLCWays), capacity}
}

// beFeatures builds the BE feature vector at the predictor's input level.
func (p *Predictor) beFeatures(a hw.Alloc) []float64 {
	return beFeatureVec(p.InputLevel, a)
}

// QoSOK predicts whether the LS allocation meets the QoS target at qps:
// the feasibility classifier must agree AND the latency regressor must
// place the tail latency a margin below the target.
func (p *Predictor) QoSOK(a hw.Alloc, qps float64) bool {
	if a.Cores <= 0 {
		return qps <= 0
	}
	feats := lsFeatures(a, qps)
	p.queries.Add(1)
	if p.LSFeasible.PredictClass(feats) != 1 {
		return false
	}
	if p.LSLatency != nil {
		margin := p.LatencyMargin
		if margin <= 0 {
			margin = 0.85
		}
		p.queries.Add(1)
		pred := math.Pow(10, p.LSLatency.Predict(feats))
		if pred > margin*p.LS.QoSTargetS {
			return false
		}
	}
	return true
}

// Throughput predicts the BE application's progress under an allocation.
func (p *Predictor) Throughput(a hw.Alloc) float64 {
	if a.Cores <= 0 {
		return 0
	}
	p.queries.Add(1)
	v := p.BEThpt.Predict(p.beFeatures(a))
	if v < 0 {
		v = 0
	}
	return v
}

// ThroughputBatch predicts BE progress for a whole candidate frontier
// in one call, appending one value per allocation to dst — the batched
// counterpart of Throughput (core.BatchPredictor). Values are bit
// identical to point-wise calls, and the query counter advances by the
// same total: one per allocation with running cores.
func (p *Predictor) ThroughputBatch(allocs []hw.Alloc, dst []float64) []float64 {
	n := 0
	for _, a := range allocs {
		if a.Cores > 0 {
			n++
		}
	}
	if n == 0 {
		for range allocs {
			dst = append(dst, 0)
		}
		return dst
	}
	p.queries.Add(int64(n))
	X := make([][]float64, 0, n)
	for _, a := range allocs {
		if a.Cores > 0 {
			X = append(X, p.beFeatures(a))
		}
	}
	scores := mlkit.PredictBatch(p.BEThpt, X, make([]float64, 0, n))
	j := 0
	for _, a := range allocs {
		if a.Cores <= 0 {
			dst = append(dst, 0)
			continue
		}
		v := scores[j]
		j++
		if v < 0 {
			v = 0
		}
		dst = append(dst, v)
	}
	return dst
}

// PowerW predicts total node power for a configuration at qps: the LS
// model's absolute node power plus the BE model's incremental power.
func (p *Predictor) PowerW(cfg hw.Config, qps float64) power.Watts {
	total := p.LSPowerW(cfg.LS, qps)
	if inc := p.BEPowerW(cfg.BE); inc > 0 {
		total += inc
	}
	return total
}

// LSPowerW predicts the absolute node power of the LS service running
// alone under the allocation at qps (platform idle included).
func (p *Predictor) LSPowerW(a hw.Alloc, qps float64) power.Watts {
	p.queries.Add(1)
	return power.Watts(p.LSPower.Predict(lsFeatures(a, qps)))
}

// BEPowerW predicts the incremental node power of the BE allocation
// (platform idle excluded); zero for a parked application.
func (p *Predictor) BEPowerW(a hw.Alloc) power.Watts {
	if a.Cores <= 0 {
		return 0
	}
	p.queries.Add(1)
	return power.Watts(max(p.BEPower.Predict(p.beFeatures(a)), 0))
}

// Feasible predicts whether a full configuration meets both the QoS
// target and the power budget — the §V-B feasibility check.
func (p *Predictor) Feasible(cfg hw.Config, qps float64, budget power.Watts) bool {
	return p.QoSOK(cfg.LS, qps) && p.PowerW(cfg, qps) <= budget
}

// Queries returns the number of model invocations so far (the paper
// counts these to bound search overhead, §VII-E).
func (p *Predictor) Queries() int64 { return p.queries.Load() }
