package persist

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"time"

	"repro/internal/durable"
	"repro/internal/ml"
)

// ArtifactVersion is the current on-disk format version of a model artifact
// (docs/ARCHITECTURE.md "On-disk state"). Loaders reject any other version
// with ErrArtifactVersion.
const ArtifactVersion = 1

// Artifact errors, matchable with errors.Is.
var (
	// ErrArtifactCorrupt marks files that are not parseable artifacts.
	ErrArtifactCorrupt = errors.New("persist: corrupt model artifact")
	// ErrArtifactVersion marks a parseable artifact of an unsupported
	// format version.
	ErrArtifactVersion = errors.New("persist: unsupported artifact version")
	// ErrUnknownKind marks an artifact whose model kind has no codec
	// registered in this build.
	ErrUnknownKind = errors.New("persist: unknown model kind")
	// ErrSchemaMismatch marks a feature vector or schema that does not
	// match the artifact's feature schema.
	ErrSchemaMismatch = errors.New("persist: feature schema mismatch")
)

// Artifact is a fitted model plus the metadata needed to use it safely:
// the feature schema it expects, a fingerprint of the data it was trained
// on, and the cross-validation metrics measured at training time.
type Artifact struct {
	// Name is the model's display name (the Table I row label).
	Name string
	// Kind is the registry codec kind; Save derives it from the model and
	// Load restores it from the header.
	Kind string
	// FeatureNames is the ordered feature schema (features.Names() for
	// study-trained models); prediction inputs must match its width.
	FeatureNames []string
	// Circuit and Workload tag the corpus scenario whose campaign trained
	// this model ("mac10ge"/"loopback" for the paper's flow); empty on
	// artifacts from before the corpus existed. The prediction service
	// surfaces them so multi-scenario deployments can tell models apart.
	Circuit  string
	Workload string
	// TrainRows is the number of training rows.
	TrainRows int
	// TrainHash fingerprints the training data (see DataFingerprint).
	TrainHash uint64
	// Metrics carries evaluation scores measured at training time
	// (MAE/MAX/RMSE/EV/R2 for Table I protocols); optional.
	Metrics map[string]float64
	// CreatedAt is the save timestamp.
	CreatedAt time.Time
	// Model is the fitted regressor. Its Predict must follow the
	// ml.Regressor concurrency contract: read-only after Fit.
	Model ml.Regressor
}

// New assembles an artifact around a fitted model, deriving its codec kind
// when the model's type is registered (Save re-derives it and fails loudly
// otherwise). The caller may fill TrainRows, TrainHash and Metrics before
// Save.
func New(name string, model ml.Regressor, featureNames []string) *Artifact {
	kind, _ := KindOf(model) // "" for an unregistered type
	return &Artifact{
		Name:         name,
		Kind:         kind,
		FeatureNames: append([]string(nil), featureNames...),
		Model:        model,
	}
}

// NumFeatures is the width of the artifact's feature schema.
func (a *Artifact) NumFeatures() int { return len(a.FeatureNames) }

// CheckVector validates one prediction input against the feature schema.
func (a *Artifact) CheckVector(x []float64) error {
	if len(x) != len(a.FeatureNames) {
		return fmt.Errorf("%w: vector has %d features, model %q wants %d",
			ErrSchemaMismatch, len(x), a.Name, len(a.FeatureNames))
	}
	return nil
}

// CheckSchema validates the names of the features an extractor produces,
// in its order, against the feature schema: a model scores rows in its own
// column order, so a reordered schema is as wrong as a narrower one.
func (a *Artifact) CheckSchema(names []string) error {
	if len(names) != len(a.FeatureNames) {
		return fmt.Errorf("%w: model %q wants %d features, extractor produces %d",
			ErrSchemaMismatch, a.Name, len(a.FeatureNames), len(names))
	}
	for i, name := range names {
		if a.FeatureNames[i] != name {
			return fmt.Errorf("%w: feature %d of model %q is %q, extractor produces %q",
				ErrSchemaMismatch, i, a.Name, a.FeatureNames[i], name)
		}
	}
	return nil
}

// Fingerprint returns a stable 64-bit digest of the artifact's identity:
// name, kind, scenario tags, feature schema, training provenance and save
// timestamp. Two artifacts fingerprint equal only when they describe the
// same trained model; any retrain or re-save produces a new fingerprint
// (Save stamps CreatedAt), which is what lets the prediction service key
// its response cache per artifact so a hot reload never serves stale
// predictions.
func (a *Artifact) Fingerprint() uint64 {
	d := durable.NewDigest()
	d.Str(a.Name)
	d.Str(a.Kind)
	d.Str(a.Circuit)
	d.Str(a.Workload)
	d.Int(len(a.FeatureNames))
	for _, f := range a.FeatureNames {
		d.Str(f)
	}
	d.Int(a.TrainRows)
	d.U64(a.TrainHash)
	d.U64(uint64(a.CreatedAt.UnixNano()))
	keys := slices.Sorted(maps.Keys(a.Metrics))
	d.Int(len(keys))
	for _, k := range keys {
		d.Str(k)
		d.F64(a.Metrics[k])
	}
	return d.Sum()
}

// DataFingerprint returns a stable 64-bit digest of a training set: exact
// float bits of every row and target, in order. Two datasets fingerprint
// equal iff they are bit-identical, letting artifact consumers detect which
// campaign a model was trained on.
func DataFingerprint(X [][]float64, y []float64) uint64 {
	d := durable.NewDigest()
	d.Int(len(X))
	for _, row := range X {
		d.F64s(row)
	}
	d.F64s(y)
	return d.Sum()
}

// artifactHeader is the header line after magic and version. Circuit and
// Workload are additive optional fields: version-1 artifacts written before
// the corpus load cleanly with empty tags.
type artifactHeader struct {
	Name      string             `json:"name"`
	Kind      string             `json:"kind"`
	Circuit   string             `json:"circuit,omitempty"`
	Workload  string             `json:"workload,omitempty"`
	Features  []string           `json:"features"`
	TrainRows int                `json:"train_rows"`
	TrainHash durable.Hash       `json:"train_hash"`
	Metrics   map[string]float64 `json:"metrics,omitempty"`
	CreatedAt time.Time          `json:"created_at"`
}

// Validate is what durable.Load asks before it decodes the payload: gob
// cannot decode a model this build has no codec for, and that file is not
// corrupt.
func (h *artifactHeader) Validate() error {
	if h.Name == "" || len(h.Features) == 0 {
		return fmt.Errorf("%w: missing name or feature schema", ErrArtifactCorrupt)
	}
	if !KnownKind(h.Kind) {
		return fmt.Errorf("%w: kind %q (register its codec before loading)", ErrUnknownKind, h.Kind)
	}
	return nil
}

var artifactFormat = durable.Format{Magic: "repro/ffr model artifact", Version: ArtifactVersion,
	Corrupt: ErrArtifactCorrupt, Unsupported: ErrArtifactVersion}

// payload wraps the model so gob transmits the interface value (with the
// concrete type name) rather than requiring a fixed concrete type.
type payload struct {
	Model ml.Regressor
}

// Save atomically replaces the file at path with the artifact (durable.Save),
// so readers never observe a torn file. It stamps a.Kind and a.CreatedAt.
func Save(path string, a *Artifact) error {
	switch {
	case a == nil || a.Model == nil:
		return errors.New("persist: saving artifact: nil artifact or model")
	case a.Name == "":
		return errors.New("persist: saving artifact: empty model name")
	case len(a.FeatureNames) == 0:
		return errors.New("persist: saving artifact: empty feature schema")
	}
	var err error
	if a.Kind, err = KindOf(a.Model); err != nil {
		return fmt.Errorf("persist: saving artifact: %w", err)
	}
	if a.CreatedAt.IsZero() {
		a.CreatedAt = time.Now().UTC()
	}
	return durable.Save(path, artifactFormat, artifactHeader{
		Name:      a.Name,
		Kind:      a.Kind,
		Circuit:   a.Circuit,
		Workload:  a.Workload,
		Features:  a.FeatureNames,
		TrainRows: a.TrainRows,
		TrainHash: durable.Hash(a.TrainHash),
		Metrics:   a.Metrics,
		CreatedAt: a.CreatedAt,
	}, payload{Model: a.Model})
}

// Load reads and validates an artifact file. It returns ErrArtifactCorrupt
// for files durable.Load refuses or whose payload is not the header's kind
// of model, names a variant this build does not implement or cannot take a
// vector as wide as the header's schema; ErrArtifactVersion for foreign format versions, ErrUnknownKind
// for models this build has no codec for, and fs.ErrNotExist when the file
// is missing. The returned model predicts bit-identically to the instance
// that was saved.
func Load(path string) (*Artifact, error) {
	var hdr artifactHeader
	var pl payload
	if err := durable.Load(path, artifactFormat, &hdr, &pl); err != nil {
		return nil, err
	}
	if pl.Model == nil {
		return nil, artifactFormat.Corruptf(path, "payload without model")
	}
	if kind, err := KindOf(pl.Model); err != nil || kind != hdr.Kind {
		return nil, artifactFormat.Corruptf(path, "payload kind %q does not match header kind %q", kind, hdr.Kind)
	}
	if !takes(pl.Model, len(hdr.Features)) {
		return nil, artifactFormat.Corruptf(path, "the model cannot take a vector of the header's %d features", len(hdr.Features))
	}
	return &Artifact{
		Name:         hdr.Name,
		Kind:         hdr.Kind,
		Circuit:      hdr.Circuit,
		Workload:     hdr.Workload,
		FeatureNames: hdr.Features,
		TrainRows:    hdr.TrainRows,
		TrainHash:    uint64(hdr.TrainHash),
		Metrics:      hdr.Metrics,
		CreatedAt:    hdr.CreatedAt,
		Model:        pl.Model,
	}, nil
}
