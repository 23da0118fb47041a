package mlkit

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"sturgeon/internal/jsonio"
)

// Model persistence: §V-A trains the models offline on dedicated-cluster
// telemetry and §V-C stores every trained model on the server so the most
// suitable one can be deployed. Save/Load (de)serialize any of the kit's
// models through exported snapshot structs and encoding/gob, wrapped in
// a schema-validated JSON envelope (internal/jsonio) whose type tag lets
// a reader restore the right implementation.

// snapshot types — the exported wire form of each model's fitted state.

type scalerSnap struct {
	Mean, SD []float64
}

func snapScaler(s *Scaler) *scalerSnap {
	if s == nil {
		return nil
	}
	return &scalerSnap{Mean: s.Mean, SD: s.SD}
}

func (s *scalerSnap) restore() *Scaler {
	if s == nil {
		return nil
	}
	return &Scaler{Mean: s.Mean, SD: s.SD}
}

// treeSnap flattens a CART tree into parallel arrays (children by index,
// -1 for leaves).
type treeSnap struct {
	Feature     []int
	Threshold   []float64
	Left, Right []int
	Value       []float64
	Leaf        []bool
}

func snapTree(root *treeNode) treeSnap {
	var s treeSnap
	var walk func(n *treeNode) int
	walk = func(n *treeNode) int {
		idx := len(s.Feature)
		s.Feature = append(s.Feature, n.feature)
		s.Threshold = append(s.Threshold, n.threshold)
		s.Left = append(s.Left, -1)
		s.Right = append(s.Right, -1)
		s.Value = append(s.Value, n.value)
		s.Leaf = append(s.Leaf, n.leaf)
		if !n.leaf {
			s.Left[idx] = walk(n.left)
			s.Right[idx] = walk(n.right)
		}
		return idx
	}
	if root != nil {
		walk(root)
	}
	return s
}

func (s treeSnap) restore() (*treeNode, error) {
	if len(s.Feature) == 0 {
		return nil, nil
	}
	nodes := make([]treeNode, len(s.Feature))
	for i := range nodes {
		nodes[i] = treeNode{
			feature:   s.Feature[i],
			threshold: s.Threshold[i],
			value:     s.Value[i],
			leaf:      s.Leaf[i],
		}
	}
	for i := range nodes {
		if nodes[i].leaf {
			continue
		}
		l, r := s.Left[i], s.Right[i]
		if l < 0 || l >= len(nodes) || r < 0 || r >= len(nodes) {
			return nil, fmt.Errorf("mlkit: corrupt tree snapshot at node %d", i)
		}
		nodes[i].left = &nodes[l]
		nodes[i].right = &nodes[r]
	}
	return &nodes[0], nil
}

type knnSnap struct {
	K      int
	Scaler *scalerSnap
	XS     [][]float64
	YF     []float64 // regressor targets
	YI     []int     // classifier labels
}

// restore checks a KNN snapshot against the invariants Fit establishes
// and returns its training set; labels is the number of stored targets.
// Each rule rejects a snapshot that would otherwise load and then yield
// NaN, panic or index out of range at prediction time.
func (s knnSnap) restore(labels int) (knnBase, error) {
	sc := s.Scaler.restore()
	switch {
	case s.K <= 0:
		return knnBase{}, fmt.Errorf("mlkit: knn snapshot with K = %d", s.K)
	case s.K > len(s.XS):
		return knnBase{}, fmt.Errorf("mlkit: knn snapshot K = %d exceeds its %d training rows", s.K, len(s.XS))
	case labels != len(s.XS):
		return knnBase{}, fmt.Errorf("mlkit: knn snapshot has %d targets for %d training rows", labels, len(s.XS))
	case sc == nil || len(sc.Mean) != len(sc.SD):
		return knnBase{}, fmt.Errorf("mlkit: knn snapshot without a well-formed scaler")
	}
	for i, row := range s.XS {
		if len(row) != len(sc.Mean) {
			return knnBase{}, fmt.Errorf("mlkit: knn snapshot row %d has width %d, scaler width %d", i, len(row), len(sc.Mean))
		}
	}
	return knnBase{k: s.K, scaler: sc, xs: s.XS}, nil
}

type mlpSnap struct {
	Hidden     int
	Scaler     *scalerSnap
	YMean, YSD float64
	W1         [][]float64
	B1         []float64
	W2         []float64
	B2         float64
}

func snapMLP(n *mlpNet) mlpSnap {
	return mlpSnap{
		Hidden: n.hidden, Scaler: snapScaler(n.scaler),
		YMean: n.yMean, YSD: n.ySD,
		W1: n.w1, B1: n.b1, W2: n.w2, B2: n.b2,
	}
}

func (s mlpSnap) restore() mlpNet {
	return mlpNet{
		hidden: s.Hidden, scaler: s.Scaler.restore(),
		yMean: s.YMean, ySD: s.YSD,
		w1: s.W1, b1: s.B1, w2: s.W2, b2: s.B2,
	}
}

type linearSnap struct {
	Coef      []float64
	Intercept float64
	Scaler    *scalerSnap
	YMean     float64
	YSD       float64
}

// EnvelopeSchema tags the model envelope documents on disk.
const EnvelopeSchema = "sturgeon/mlkit-model/v1"

// envelope tags the gob payload with the concrete model kind. The JSON
// form base64-encodes Blob, so the stored document is diffable metadata
// around an opaque snapshot.
type envelope struct {
	Schema string `json:"schema"`
	Kind   string `json:"kind"`
	Blob   []byte `json:"blob"`
}

// Validate implements jsonio.Validator.
func (e *envelope) Validate() error {
	switch {
	case e.Schema != EnvelopeSchema:
		return fmt.Errorf("mlkit: envelope schema %q, want %q", e.Schema, EnvelopeSchema)
	case e.Kind == "":
		return fmt.Errorf("mlkit: envelope without model kind")
	case len(e.Blob) == 0:
		return fmt.Errorf("mlkit: envelope %q with empty payload", e.Kind)
	}
	return nil
}

func encodePayload(v interface{}) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func decodePayload(blob []byte, v interface{}) error {
	return gob.NewDecoder(bytes.NewReader(blob)).Decode(v)
}

// Save serializes a fitted model (any Regressor or Classifier from this
// package) to w.
func Save(w io.Writer, model interface{}) error {
	env := envelope{Schema: EnvelopeSchema}
	var payload interface{}
	switch m := model.(type) {
	case *TreeRegressor:
		env.Kind = "tree-reg"
		payload = snapTree(m.root)
	case *TreeClassifier:
		env.Kind = "tree-clf"
		payload = snapTree(m.root)
	case *KNNRegressor:
		env.Kind = "knn-reg"
		payload = knnSnap{K: m.base.k, Scaler: snapScaler(m.base.scaler), XS: m.base.xs, YF: m.y}
	case *KNNClassifier:
		env.Kind = "knn-clf"
		payload = knnSnap{K: m.base.k, Scaler: snapScaler(m.base.scaler), XS: m.base.xs, YI: m.y}
	case *MLPRegressor:
		env.Kind = "mlp-reg"
		payload = snapMLP(&m.net)
	case *MLPClassifier:
		env.Kind = "mlp-clf"
		payload = snapMLP(&m.net)
	case *LinearRegression:
		env.Kind = "linear"
		payload = linearSnap{Coef: m.coef, Intercept: m.intercept}
	case *LogisticRegression:
		env.Kind = "logistic"
		payload = linearSnap{Coef: m.coef, Intercept: m.intercept, Scaler: snapScaler(m.scaler)}
	case *SVMClassifier:
		env.Kind = "svm-clf"
		payload = linearSnap{Coef: m.w, Intercept: m.b, Scaler: snapScaler(m.scaler)}
	case *SVR:
		env.Kind = "svr"
		payload = linearSnap{Coef: m.w, Intercept: m.b, Scaler: snapScaler(m.scaler), YMean: m.yMean, YSD: m.ySD}
	case *Lasso:
		env.Kind = "lasso"
		payload = linearSnap{Coef: m.coef, Intercept: m.intercept, Scaler: snapScaler(m.scaler), YMean: m.yMean}
	default:
		return fmt.Errorf("mlkit: cannot save model of type %T", model)
	}
	blob, err := encodePayload(payload)
	if err != nil {
		return err
	}
	env.Blob = blob
	return jsonio.Encode(w, &env)
}

// Load deserializes a model previously written by Save, returning the
// concrete model as interface{} (assert to Regressor or Classifier).
func Load(r io.Reader) (interface{}, error) {
	var env envelope
	if err := jsonio.Decode(r, &env); err != nil {
		return nil, err
	}
	switch env.Kind {
	case "tree-reg", "tree-clf":
		var s treeSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		root, err := s.restore()
		if err != nil {
			return nil, err
		}
		if env.Kind == "tree-reg" {
			return &TreeRegressor{root: root}, nil
		}
		return &TreeClassifier{root: root}, nil
	case "knn-reg":
		var s knnSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		base, err := s.restore(len(s.YF))
		if err != nil {
			return nil, err
		}
		return &KNNRegressor{K: s.K, base: base, y: s.YF}, nil
	case "knn-clf":
		var s knnSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		base, err := s.restore(len(s.YI))
		if err != nil {
			return nil, err
		}
		if err := checkBinary(s.YI); err != nil {
			return nil, err
		}
		return &KNNClassifier{K: s.K, base: base, y: s.YI}, nil
	case "mlp-reg":
		var s mlpSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		return &MLPRegressor{net: s.restore()}, nil
	case "mlp-clf":
		var s mlpSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		return &MLPClassifier{net: s.restore()}, nil
	case "linear":
		var s linearSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		return &LinearRegression{coef: s.Coef, intercept: s.Intercept}, nil
	case "logistic":
		var s linearSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		return &LogisticRegression{coef: s.Coef, intercept: s.Intercept, scaler: s.Scaler.restore()}, nil
	case "svm-clf":
		var s linearSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		return &SVMClassifier{w: s.Coef, b: s.Intercept, scaler: s.Scaler.restore()}, nil
	case "svr":
		var s linearSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		return &SVR{w: s.Coef, b: s.Intercept, scaler: s.Scaler.restore(), yMean: s.YMean, ySD: s.YSD}, nil
	case "lasso":
		var s linearSnap
		if err := decodePayload(env.Blob, &s); err != nil {
			return nil, err
		}
		return &Lasso{coef: s.Coef, intercept: s.Intercept, scaler: s.Scaler.restore(), yMean: s.YMean}, nil
	default:
		return nil, fmt.Errorf("mlkit: unknown model kind %q", env.Kind)
	}
}

// LoadRegressor loads and type-asserts a Regressor.
func LoadRegressor(r io.Reader) (Regressor, error) {
	m, err := Load(r)
	if err != nil {
		return nil, err
	}
	reg, ok := m.(Regressor)
	if !ok {
		return nil, fmt.Errorf("mlkit: stored model %T is not a regressor", m)
	}
	return reg, nil
}

// LoadClassifier loads and type-asserts a Classifier.
func LoadClassifier(r io.Reader) (Classifier, error) {
	m, err := Load(r)
	if err != nil {
		return nil, err
	}
	clf, ok := m.(Classifier)
	if !ok {
		return nil, fmt.Errorf("mlkit: stored model %T is not a classifier", m)
	}
	return clf, nil
}
