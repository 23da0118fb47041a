// Package mlkit is a self-contained, dependency-free machine-learning kit
// implementing every modelling technique the paper evaluates for its
// performance and power predictors (§V-C, Figs. 6–7): decision trees
// (CART), k-nearest neighbours, support-vector machines, multi-layer
// perceptrons, and logistic/linear regression — plus Lasso regression for
// the feature selection of §V-A.
//
// Regressors predict a real value (BE throughput, power); classifiers
// answer the binary question the LS performance model needs ("does this
// configuration meet the QoS target?"). All models are deterministic
// given their seed and train in well under a second on the few thousand
// samples a profiling sweep produces, matching the paper's ~0.04 ms
// inference budget.
package mlkit

import (
	"errors"
	"fmt"
)

// Regressor is a trainable real-valued predictor.
type Regressor interface {
	// Fit trains on a design matrix X (rows = samples) and targets y.
	Fit(X [][]float64, y []float64) error
	// Predict returns the prediction for one feature vector.
	Predict(x []float64) float64
}

// Classifier is a trainable binary predictor with labels 0 and 1.
type Classifier interface {
	// Fit trains on X and binary labels y (each 0 or 1).
	Fit(X [][]float64, y []int) error
	// PredictClass returns the predicted label, 0 or 1.
	PredictClass(x []float64) int
}

// ErrNoData is returned by Fit when the training set is empty or ragged.
var ErrNoData = errors.New("mlkit: empty or malformed training set")

// checkMatrix validates a design matrix against a label count.
func checkMatrix(X [][]float64, n int) error {
	if len(X) == 0 || len(X) != n {
		return ErrNoData
	}
	w := len(X[0])
	if w == 0 {
		return ErrNoData
	}
	for _, row := range X {
		if len(row) != w {
			return ErrNoData
		}
	}
	return nil
}

// checkBinary validates 0/1 labels.
func checkBinary(y []int) error {
	for _, v := range y {
		if v != 0 && v != 1 {
			return fmt.Errorf("mlkit: label %d is not binary", v)
		}
	}
	return nil
}

// Scaler standardizes features to zero mean and unit variance; constant
// features are left centred with unit divisor.
type Scaler struct {
	Mean []float64
	SD   []float64
}

// FitScaler computes column statistics.
func FitScaler(X [][]float64) *Scaler {
	if len(X) == 0 {
		return &Scaler{}
	}
	d := len(X[0])
	s := &Scaler{Mean: make([]float64, d), SD: make([]float64, d)}
	for _, row := range X {
		for j, v := range row {
			s.Mean[j] += v
		}
	}
	n := float64(len(X))
	for j := range s.Mean {
		s.Mean[j] /= n
	}
	for _, row := range X {
		for j, v := range row {
			dv := v - s.Mean[j]
			s.SD[j] += dv * dv
		}
	}
	for j := range s.SD {
		s.SD[j] = sqrt(s.SD[j] / n)
		if s.SD[j] < 1e-12 {
			s.SD[j] = 1
		}
	}
	return s
}

// Transform standardizes one vector (allocating a copy).
func (s *Scaler) Transform(x []float64) []float64 {
	out := make([]float64, len(x))
	for j, v := range x {
		if j < len(s.Mean) {
			out[j] = (v - s.Mean[j]) / s.SD[j]
		} else {
			out[j] = v
		}
	}
	return out
}

// TransformInto standardizes one vector into a caller-owned buffer,
// the allocation-free counterpart of Transform.
func (s *Scaler) TransformInto(x, dst []float64) []float64 {
	dst = dst[:0]
	for j, v := range x {
		if j < len(s.Mean) {
			dst = append(dst, (v-s.Mean[j])/s.SD[j])
		} else {
			dst = append(dst, v)
		}
	}
	return dst
}

// TransformAll standardizes a matrix.
func (s *Scaler) TransformAll(X [][]float64) [][]float64 {
	out := make([][]float64, len(X))
	for i, row := range X {
		out[i] = s.Transform(row)
	}
	return out
}
