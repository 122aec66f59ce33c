package persist

import (
	"fmt"
	"reflect"
	"strings"
	"sync"

	"repro/internal/ml"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/ml/mlp"
	"repro/internal/ml/svr"
	"repro/internal/ml/tree"
)

// Codec registry: stable kind names for the concrete regressor and scaler
// types an artifact can carry. The kind is recorded in the artifact header
// so a loader can tell what a file contains — and reject files it cannot
// decode — before touching the gob payload. Pipelines get a composite kind,
// "pipeline[<scaler>,<model>]", derived recursively.
//
// Importing this package links in every built-in model package, whose init
// functions gob-register the concrete types; that registration is what lets
// the interface-typed payload (and Pipeline's interface fields) decode.

var registry = struct {
	sync.RWMutex
	kindOf map[reflect.Type]string
	known  map[string]bool
}{
	kindOf: map[reflect.Type]string{},
	known:  map[string]bool{},
}

// RegisterKind associates a stable kind name with the concrete type of
// example (a regressor or a scaler). Built-in kinds are registered by this
// package's init; external callers may add their own before saving or
// loading artifacts that carry custom models. It panics on a duplicate kind
// or type, like gob.Register.
func RegisterKind(kind string, example any) {
	if kind == "" || example == nil {
		panic("persist: RegisterKind with empty kind or nil example")
	}
	t := reflect.TypeOf(example)
	registry.Lock()
	defer registry.Unlock()
	if prev, ok := registry.kindOf[t]; ok {
		panic(fmt.Sprintf("persist: type %v already registered as %q", t, prev))
	}
	if registry.known[kind] {
		panic(fmt.Sprintf("persist: kind %q already registered", kind))
	}
	registry.kindOf[t] = kind
	registry.known[kind] = true
}

func init() {
	RegisterKind("linreg", &linreg.LinearRegression{})
	RegisterKind("knn", &knn.Regressor{})
	RegisterKind("svr", &svr.Regressor{})
	RegisterKind("tree", &tree.Regressor{})
	RegisterKind("forest", &ensemble.RandomForest{})
	RegisterKind("boosting", &ensemble.GradientBoosting{})
	RegisterKind("mlp", &mlp.Regressor{})
	RegisterKind("std", &ml.StandardScaler{})
}

func kindOfValue(v any) (string, bool) {
	registry.RLock()
	defer registry.RUnlock()
	k, ok := registry.kindOf[reflect.TypeOf(v)]
	return k, ok
}

func kindRegistered(kind string) bool {
	registry.RLock()
	defer registry.RUnlock()
	return registry.known[kind]
}

// KindOf derives the registry kind of a model, unwrapping pipelines. It
// fails for unregistered concrete types, which is how Save refuses models
// no loader would be able to reconstruct.
func KindOf(m ml.Regressor) (string, error) {
	if p, ok := m.(*ml.Pipeline); ok {
		scaler := "raw"
		if p.Scaler != nil {
			sk, ok := kindOfValue(p.Scaler)
			if !ok {
				return "", fmt.Errorf("persist: unregistered scaler type %T", p.Scaler)
			}
			scaler = sk
		}
		if p.Model == nil {
			return "", fmt.Errorf("persist: pipeline without a model")
		}
		inner, err := KindOf(p.Model)
		if err != nil {
			return "", err
		}
		return "pipeline[" + scaler + "," + inner + "]", nil
	}
	k, ok := kindOfValue(m)
	if !ok {
		return "", fmt.Errorf("persist: unregistered model type %T", m)
	}
	return k, nil
}

// KnownKind reports whether a header kind (possibly composite) names only
// registered codecs, i.e. whether this build can decode such an artifact.
func KnownKind(kind string) bool {
	if rest, ok := strings.CutPrefix(kind, "pipeline["); ok {
		body, ok := strings.CutSuffix(rest, "]")
		if !ok {
			return false
		}
		scaler, inner, ok := strings.Cut(body, ",")
		if !ok {
			return false
		}
		if scaler != "raw" && !kindRegistered(scaler) {
			return false
		}
		return KnownKind(inner)
	}
	return kindRegistered(kind)
}

// takes reports whether Predict on m (a built-in model or scaler, already
// past its own post-decode check) can index a vector of width n. A registered
// kind from outside this package is taken on trust.
func takes(m any, n int) bool {
	var trees []*tree.Regressor // read x[Feature] at their splits, nothing else
	switch m := m.(type) {
	case *ml.Pipeline:
		return (m.Scaler == nil || takes(m.Scaler, n)) && takes(m.Model, n)
	case *ml.StandardScaler:
		return len(m.Mean) == n
	case *linreg.LinearRegression:
		return !m.Fitted || len(m.Weights) == n
	case *knn.Regressor:
		return !m.Fitted || len(m.X[0]) == n
	case *svr.Regressor:
		return len(m.SV) == 0 || len(m.SV[0]) == n
	case *mlp.Regressor:
		return !m.Fitted || m.Dims[0] == n
	case *tree.Regressor:
		trees = []*tree.Regressor{m}
	case *ensemble.RandomForest:
		trees = m.Members
	case *ensemble.GradientBoosting:
		trees = m.StageTrees
	}
	for _, t := range trees {
		for _, node := range t.Nodes {
			if node.Feature >= n {
				return false
			}
		}
	}
	return true
}
