// Package persist is the model artifact store: the versioned on-disk format
// that lets a regressor trained on one fault-injection campaign be reloaded
// — bit-identical — by any later process, turning the paper's
// train-once/predict-forever promise into a file.
//
// An artifact is a single file in the container every on-disk format of this
// system uses (internal/durable; docs/ARCHITECTURE.md "On-disk state"): a
// human-readable JSON header line (model name and kind, the feature schema,
// a training-data fingerprint, CV metrics) followed by a gob payload with
// the fitted model, replaced atomically. This package owns what is the
// artifact's: the header's fields, the fixed codec table of the eight
// built-in model and scaler kinds and the check that the payload is the kind
// of model the header says.
package persist
