package mlkit

import "math"

func sqrt(x float64) float64 { return math.Sqrt(x) }

// R2 returns the coefficient of determination of predictions against
// ground truth — the accuracy metric of the paper's Figs. 6–7. A perfect
// model scores 1; predicting the mean scores 0; worse models go negative.
func R2(yTrue, yPred []float64) float64 {
	if len(yTrue) == 0 || len(yTrue) != len(yPred) {
		return math.NaN()
	}
	mean := 0.0
	for _, v := range yTrue {
		mean += v
	}
	mean /= float64(len(yTrue))
	var ssRes, ssTot float64
	for i, v := range yTrue {
		d := v - yPred[i]
		ssRes += d * d
		m := v - mean
		ssTot += m * m
	}
	if ssTot == 0 {
		if ssRes == 0 {
			return 1
		}
		return math.Inf(-1)
	}
	return 1 - ssRes/ssTot
}

// Accuracy returns the fraction of matching labels.
func Accuracy(yTrue, yPred []int) float64 {
	if len(yTrue) == 0 || len(yTrue) != len(yPred) {
		return math.NaN()
	}
	hits := 0
	for i := range yTrue {
		if yTrue[i] == yPred[i] {
			hits++
		}
	}
	return float64(hits) / float64(len(yTrue))
}

// EvaluateRegressor fits a fresh regressor on the training split and
// returns its R² on the test split.
func EvaluateRegressor(m Regressor, trainX [][]float64, trainY []float64, testX [][]float64, testY []float64) (float64, error) {
	if err := m.Fit(trainX, trainY); err != nil {
		return math.NaN(), err
	}
	pred := make([]float64, len(testX))
	for i, x := range testX {
		pred[i] = m.Predict(x)
	}
	return R2(testY, pred), nil
}

// EvaluateClassifier fits a fresh classifier and returns its accuracy on
// the test split.
func EvaluateClassifier(m Classifier, trainX [][]float64, trainY []int, testX [][]float64, testY []int) (float64, error) {
	if err := m.Fit(trainX, trainY); err != nil {
		return math.NaN(), err
	}
	pred := make([]int, len(testX))
	for i, x := range testX {
		pred[i] = m.PredictClass(x)
	}
	return Accuracy(testY, pred), nil
}
