package mlkit

// knnBase stores the standardized training set shared by the KNN
// regressor and classifier.
type knnBase struct {
	k      int
	scaler *Scaler
	xs     [][]float64
}

func (b *knnBase) fit(X [][]float64, n int) error {
	if err := checkMatrix(X, n); err != nil {
		return err
	}
	b.scaler = FitScaler(X)
	b.xs = b.scaler.TransformAll(X)
	if b.k <= 0 {
		b.k = 5
	}
	if b.k > len(b.xs) {
		b.k = len(b.xs)
	}
	return nil
}

// knnStack bounds the neighbourhood size and the query width whose
// scratch lives in fixed arrays on the predicting goroutine's stack;
// larger ones fall back to the heap. The fitted model itself holds no
// scratch, so one model is safe to query from many goroutines.
const knnStack = 16

// hit is one candidate neighbour: its squared distance to the query and
// its training-row index.
type hit struct {
	d   float64
	idx int
}

// neighbors returns the k nearest training samples in (distance, index)
// order — the order a full sort of every row would give. It keeps a
// bounded, sorted top-k: rows arrive in index order, and a row enters
// only if it is strictly closer than the current k-th best, placed after
// any equal distances already kept. hits and qbuf are caller-owned
// scratch (pass zero-length slices of stack arrays); either grows on the
// heap when k or the query width exceeds its capacity.
func (b *knnBase) neighbors(x []float64, hits []hit, qbuf []float64) []hit {
	q := b.scaler.TransformInto(x, qbuf)
	k := b.k
	if cap(hits) < k {
		hits = make([]hit, 0, k)
	}
	hits = hits[:0]
	for i, row := range b.xs {
		d := 0.0
		for j := range row {
			dv := row[j] - q[j]
			d += dv * dv
		}
		n := len(hits)
		if n == k {
			if !(d < hits[k-1].d) { // also keeps a NaN distance out
				continue
			}
			n-- // the current k-th best drops out
		} else {
			hits = hits[:n+1]
		}
		for n > 0 && hits[n-1].d > d {
			hits[n] = hits[n-1]
			n--
		}
		hits[n] = hit{d, i}
	}
	return hits
}

// KNNRegressor predicts the mean target of the K nearest neighbours in
// standardized feature space — the technique the paper found best for BE
// performance and for both power models (Figs. 6–7).
type KNNRegressor struct {
	// K is the neighbourhood size (default 5).
	K int

	base knnBase
	y    []float64
}

// Fit stores the training set.
func (m *KNNRegressor) Fit(X [][]float64, y []float64) error {
	m.base.k = m.K
	if err := m.base.fit(X, len(y)); err != nil {
		return err
	}
	m.y = append([]float64(nil), y...)
	return nil
}

// Predict averages the K nearest targets.
func (m *KNNRegressor) Predict(x []float64) float64 {
	if len(m.y) == 0 {
		return 0
	}
	var hb [knnStack]hit
	var qb [knnStack]float64
	sum := 0.0
	nb := m.base.neighbors(x, hb[:0], qb[:0])
	for _, h := range nb {
		sum += m.y[h.idx]
	}
	return sum / float64(len(nb))
}

// KNNClassifier predicts the majority label of the K nearest neighbours.
type KNNClassifier struct {
	// K is the neighbourhood size (default 5).
	K int

	base knnBase
	y    []int
}

// Fit stores the training set.
func (m *KNNClassifier) Fit(X [][]float64, y []int) error {
	if err := checkBinary(y); err != nil {
		return err
	}
	m.base.k = m.K
	if err := m.base.fit(X, len(y)); err != nil {
		return err
	}
	m.y = append([]int(nil), y...)
	return nil
}

// PredictClass returns the majority vote (ties go to 1).
func (m *KNNClassifier) PredictClass(x []float64) int {
	if len(m.y) == 0 {
		return 0
	}
	var hb [knnStack]hit
	var qb [knnStack]float64
	ones := 0
	nb := m.base.neighbors(x, hb[:0], qb[:0])
	for _, h := range nb {
		ones += m.y[h.idx]
	}
	if 2*ones >= len(nb) {
		return 1
	}
	return 0
}
