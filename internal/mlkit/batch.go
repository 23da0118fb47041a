package mlkit

// BatchRegressor is the optional batched fast path of a Regressor:
// PredictBatch evaluates a whole design matrix in one call, writing
// into a caller-owned destination so hot loops can amortize per-call
// overhead and reuse scratch across rows. Implementations must return
// exactly the values point-wise Predict would, bit for bit.
type BatchRegressor interface {
	Regressor
	// PredictBatch appends one prediction per row of X to dst and
	// returns the extended slice (pass dst[:0] to reuse its storage).
	PredictBatch(X [][]float64, dst []float64) []float64
}

// PredictBatch evaluates m on every row of X, using the model's batched
// fast path when it has one and falling back to point-wise Predict
// otherwise. Results are appended to dst.
func PredictBatch(m Regressor, X [][]float64, dst []float64) []float64 {
	if b, ok := m.(BatchRegressor); ok {
		return b.PredictBatch(X, dst)
	}
	for _, x := range X {
		dst = append(dst, m.Predict(x))
	}
	return dst
}

// PredictBatch implements BatchRegressor.
func (m *LinearRegression) PredictBatch(X [][]float64, dst []float64) []float64 {
	for _, x := range X {
		v := m.intercept
		for j, c := range m.coef {
			if j < len(x) {
				v += c * x[j]
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// PredictBatch implements BatchRegressor, reusing one standardization
// buffer across the whole batch.
func (m *Lasso) PredictBatch(X [][]float64, dst []float64) []float64 {
	if m.scaler == nil {
		for range X {
			dst = append(dst, 0)
		}
		return dst
	}
	var xs []float64
	for _, x := range X {
		xs = m.scaler.TransformInto(x, xs)
		v := m.intercept
		for j, c := range m.coef {
			if j < len(xs) {
				v += c * xs[j]
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// PredictBatch implements BatchRegressor.
func (m *TreeRegressor) PredictBatch(X [][]float64, dst []float64) []float64 {
	for _, x := range X {
		dst = append(dst, m.Predict(x))
	}
	return dst
}
