package persist

import (
	"fmt"
	"reflect"
	"strings"

	"repro/internal/ml"
	"repro/internal/ml/ensemble"
	"repro/internal/ml/knn"
	"repro/internal/ml/linreg"
	"repro/internal/ml/mlp"
	"repro/internal/ml/svr"
	"repro/internal/ml/tree"
)

// codecKinds is the codec table: stable kind names for the eight concrete
// regressor and scaler types an artifact can carry. The kind is recorded in
// the artifact header so a loader can tell what a file contains — and
// reject files it cannot decode — before touching the gob payload.
// Pipelines get a composite kind, "pipeline[<scaler>,<model>]", derived
// recursively.
//
// Importing this package links in every built-in model package, whose init
// functions gob-register the concrete types; that registration is what lets
// the interface-typed payload (and Pipeline's interface fields) decode.
var codecKinds = map[reflect.Type]string{
	reflect.TypeFor[*linreg.LinearRegression]():   "linreg",
	reflect.TypeFor[*knn.Regressor]():             "knn",
	reflect.TypeFor[*svr.Regressor]():             "svr",
	reflect.TypeFor[*tree.Regressor]():            "tree",
	reflect.TypeFor[*ensemble.RandomForest]():     "forest",
	reflect.TypeFor[*ensemble.GradientBoosting](): "boosting",
	reflect.TypeFor[*mlp.Regressor]():             "mlp",
	reflect.TypeFor[*ml.StandardScaler]():         "std",
}

// kindRegistered reports whether kind names one of the table's codecs.
func kindRegistered(kind string) bool {
	for _, k := range codecKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// KindOf derives the registry kind of a model, unwrapping pipelines. It
// fails for any other concrete type, which is how Save refuses models
// no loader would be able to reconstruct.
func KindOf(m ml.Regressor) (string, error) {
	if p, ok := m.(*ml.Pipeline); ok {
		scaler := "raw"
		if p.Scaler != nil {
			sk, ok := codecKinds[reflect.TypeOf(p.Scaler)]
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
	k, ok := codecKinds[reflect.TypeOf(m)]
	if !ok {
		return "", fmt.Errorf("persist: unregistered model type %T", m)
	}
	return k, nil
}

// KnownKind reports whether a header kind (possibly composite) names only
// built-in codecs, i.e. whether this build can decode such an artifact.
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
// past its own post-decode check) can index a vector of width n.
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
