package mlkit

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"
)

func TestSaveLoadRegressorsRoundTrip(t *testing.T) {
	X, y := synthReg(600, 81)
	regs := map[string]Regressor{
		"tree":   &TreeRegressor{},
		"knn":    &KNNRegressor{K: 5},
		"mlp":    &MLPRegressor{Epochs: 40, Seed: 1},
		"linear": &LinearRegression{},
		"svr":    &SVR{Seed: 1},
		"lasso":  &Lasso{Lambda: 0.01},
	}
	for name, m := range regs {
		name, m := name, m
		t.Run(name, func(t *testing.T) {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, m); err != nil {
				t.Fatal(err)
			}
			back, err := LoadRegressor(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				a, b := m.Predict(X[i]), back.Predict(X[i])
				if a != b {
					t.Fatalf("prediction drift after reload: %v vs %v", a, b)
				}
			}
		})
	}
}

func TestSaveLoadClassifiersRoundTrip(t *testing.T) {
	X, y := synthClf(600, 83)
	clfs := map[string]Classifier{
		"tree":     &TreeClassifier{},
		"knn":      &KNNClassifier{K: 5},
		"mlp":      &MLPClassifier{Epochs: 40, Seed: 1},
		"logistic": &LogisticRegression{},
		"svm":      &SVMClassifier{Seed: 1},
	}
	for name, m := range clfs {
		name, m := name, m
		t.Run(name, func(t *testing.T) {
			if err := m.Fit(X, y); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := Save(&buf, m); err != nil {
				t.Fatal(err)
			}
			back, err := LoadClassifier(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 100; i++ {
				if m.PredictClass(X[i]) != back.PredictClass(X[i]) {
					t.Fatalf("class drift after reload at sample %d", i)
				}
			}
		})
	}
}

func TestLoadKindMismatch(t *testing.T) {
	X, y := synthReg(100, 87)
	m := &TreeRegressor{}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, m); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadClassifier(&buf); err == nil {
		t.Error("regressor loaded as classifier")
	}
}

func TestSaveUnknownType(t *testing.T) {
	var buf bytes.Buffer
	if err := Save(&buf, struct{}{}); err == nil {
		t.Error("unknown model type accepted")
	}
}

func TestLoadGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not a gob stream")); err == nil {
		t.Error("garbage input accepted")
	}
}

func TestLoadUnknownKind(t *testing.T) {
	var buf bytes.Buffer
	// Hand-roll an envelope with a bogus kind.
	env := envelope{Kind: "quantum-annealer", Blob: []byte{1}}
	if err := gob.NewEncoder(&buf).Encode(env); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf); err == nil {
		t.Error("unknown kind accepted")
	}
}
